"""Tests for the privacy-loss analysis (Lemma 3.1, Theorem 3.1, Corollary 1)."""

import math

import numpy as np
import pytest

from repro.core import (
    delta_for_lambda,
    epsilon_for_lambda,
    lambda_for_epsilon,
    path_cost_bound,
    rho,
    rho_top,
    simpletree_scale,
    split_probability,
)


class TestRho:
    def test_rho_below_threshold_is_one_over_lambda(self):
        # Equation (3): for x <= theta the cost is exactly 1/lambda.
        lam = 2.0
        for x in (-5.0, -1.0, 0.0):
            assert rho(x, lam, theta=0.0) == pytest.approx(1.0 / lam)

    def test_rho_decays_above_threshold(self):
        lam = 1.0
        values = [rho(x, lam) for x in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rho_positive(self):
        for x in np.linspace(-10, 10, 41):
            assert rho(float(x), 1.5) > 0

    def test_rho_deep_tail_matches_exponential_decay(self):
        # For large x, rho(x) ~ (e^{1/lam} - 1) * Pr[Lap > x - theta] ... the
        # dominant behaviour is exp(-x/lam); check the log-slope.
        lam = 1.0
        r1, r2 = rho(20.0, lam), rho(21.0, lam)
        assert math.log(r1 / r2) == pytest.approx(1.0 / lam, rel=1e-3)

    def test_lemma_3_1_pointwise(self):
        # rho(x) <= rho_top(x) everywhere (Lemma 3.1), multiple scales/thresholds.
        for lam in (0.5, 1.0, 3.0):
            for theta in (0.0, 2.5):
                for x in np.linspace(theta - 8, theta + 30, 200):
                    assert rho(float(x), lam, theta) <= rho_top(float(x), lam, theta) + 1e-12

    def test_rho_top_piecewise_boundary(self):
        lam, theta = 2.0, 0.0
        # At x = theta + 1 both branches agree: exp(0)/lam = 1/lam.
        assert rho_top(theta + 1, lam, theta) == pytest.approx(1.0 / lam)
        assert rho_top(theta + 0.999, lam, theta) == pytest.approx(1.0 / lam)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            rho(0.0, 0.0)
        with pytest.raises(ValueError):
            rho_top(0.0, -1.0)


class TestPathBound:
    def test_path_cost_bound_formula(self):
        lam, gamma = 2.0, math.log(4)
        expected = (2 * 4 - 1) / (4 - 1) / lam  # (2beta-1)/(beta-1)/lam
        assert path_cost_bound(lam, gamma) == pytest.approx(expected)

    def test_telescoped_rho_top_sum_within_bound(self):
        # A worst-case path: biased counts theta+1, theta+1+delta, ... going up.
        lam, gamma, theta = 1.0, math.log(4), 0.0
        delta = gamma * lam
        counts = [theta + 1 + k * delta for k in range(200)]
        total = sum(rho_top(c, lam, theta) for c in counts) + 1.0 / lam
        assert total <= path_cost_bound(lam, gamma) + 1e-9

    def test_bound_decreases_with_gamma(self):
        assert path_cost_bound(1.0, 0.5) > path_cost_bound(1.0, 2.0)


class TestCalibration:
    def test_corollary_1_quadtree(self):
        # beta = 4: lambda = (2*4-1)/(4-1)/eps = 7/3/eps.
        assert lambda_for_epsilon(1.0, fanout=4) == pytest.approx(7.0 / 3.0)
        assert lambda_for_epsilon(0.5, fanout=4) == pytest.approx(14.0 / 3.0)

    def test_corollary_1_binary(self):
        # beta = 2: lambda = 3/eps.
        assert lambda_for_epsilon(1.0, fanout=2) == pytest.approx(3.0)

    def test_delta_is_lambda_ln_beta(self):
        lam = lambda_for_epsilon(1.0, fanout=4)
        assert delta_for_lambda(lam, fanout=4) == pytest.approx(lam * math.log(4))

    def test_epsilon_lambda_roundtrip(self):
        for fanout in (2, 4, 16):
            for eps in (0.05, 0.4, 1.6):
                lam = lambda_for_epsilon(eps, fanout)
                assert epsilon_for_lambda(lam, fanout) == pytest.approx(eps)

    def test_custom_gamma(self):
        # gamma = ln 2 regardless of fanout.
        lam = lambda_for_epsilon(1.0, fanout=4, gamma=math.log(2))
        assert lam == pytest.approx(3.0)

    def test_simpletree_scale(self):
        assert simpletree_scale(0.5, height=10) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            simpletree_scale(1.0, height=0)

    @pytest.mark.parametrize("height", [2.5, 3.0, True, "3"])
    def test_simpletree_scale_rejects_non_integer_height(self, height):
        with pytest.raises(ValueError, match="height must be an integer"):
            simpletree_scale(1.0, height=height)

    def test_simpletree_scale_accepts_numpy_integers(self):
        assert simpletree_scale(0.5, height=np.int64(10)) == pytest.approx(20.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lambda_for_epsilon(0.0, 4)
        with pytest.raises(ValueError):
            lambda_for_epsilon(1.0, 1)
        with pytest.raises(ValueError):
            lambda_for_epsilon(1.0, 4, gamma=0.0)


class TestSplitProbability:
    def test_floor_probability_is_half_beta_inverse(self):
        # Lemma 3.2: at b = theta - delta with delta = lam ln(beta),
        # Pr[split] = 1/(2 beta).
        beta = 4
        lam = 1.3
        delta = lam * math.log(beta)
        p = split_probability(0.0 - delta, lam, theta=0.0)
        assert p == pytest.approx(1.0 / (2 * beta))

    def test_monotone_in_count(self):
        ps = [split_probability(b, 1.0) for b in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        assert all(a < b for a, b in zip(ps, ps[1:]))
