"""End-to-end privacy-budget audits of the released pipelines.

Verifies the ε arithmetic of every composed release: the pieces must sum
to the promised total (Lemma 2.1), and the noise scales used must match
the calibration rules of the paper.
"""

import math

import pytest

from repro.core import PrivTreeParams, lambda_for_epsilon
from repro.mechanisms import BudgetExceededError, PrivacyAccountant


class TestPrivTreeHistogramBudget:
    def test_default_split_halves(self):
        acc = PrivacyAccountant(1.0)
        tree = acc.spend_fraction(0.5, "tree")
        counts = acc.spend_fraction(0.5, "counts")
        assert tree == counts == 0.5
        assert acc.remaining == pytest.approx(0.0, abs=1e-12)

    def test_structure_noise_matches_corollary_1(self):
        # from_spec("privtree") at eps=1, fanout 4: tree budget 0.5 -> lambda
        # must be (2*4-1)/(4-1)/0.5 = 14/3.
        params = PrivTreeParams.calibrate(0.5, fanout=4)
        assert params.lam == pytest.approx(14.0 / 3.0)
        assert params.delta == pytest.approx(params.lam * math.log(4))

    def test_count_noise_is_two_over_epsilon(self):
        # Section 3.4: leaf counts at eps/2 budget means scale 2/eps.
        eps = 0.8
        count_scale = 1.0 / (eps / 2.0)
        assert count_scale == pytest.approx(2.0 / eps)

    def test_overspending_fails_loudly(self):
        acc = PrivacyAccountant(1.0)
        acc.spend_fraction(0.5)
        acc.spend_fraction(0.5)
        with pytest.raises(BudgetExceededError):
            acc.spend(1e-6)


class TestSequenceBudget:
    def test_section_4_2_split(self):
        # PST structure gets eps/beta, histograms eps*(beta-1)/beta.
        beta = 18  # msnbc: |I| + 1
        eps = 1.0
        acc = PrivacyAccountant(eps)
        tree = acc.spend_fraction(1.0 / beta, "structure")
        hists = acc.spend_fraction(1.0 - 1.0 / beta, "histograms")
        assert tree == pytest.approx(eps / beta)
        assert hists == pytest.approx(eps * (beta - 1) / beta)
        assert acc.remaining == pytest.approx(0.0, abs=1e-9)

    def test_theorem_4_1_scale(self):
        # lambda >= (2beta-1)/(beta-1) * l_top / eps_tree.
        beta, l_top, eps_tree = 8, 20, 0.125
        params = PrivTreeParams.calibrate(
            eps_tree, fanout=beta, sensitivity=float(l_top)
        )
        expected = (2 * beta - 1) / (beta - 1) * l_top / eps_tree
        assert params.lam == pytest.approx(expected)

    def test_theorem_4_2_scale(self):
        # Histogram noise: l_top / eps_hist.
        l_top, eps_hist = 20, 0.875
        assert l_top / eps_hist == pytest.approx(22.857142857142858)


class TestCalibrationInverse:
    def test_guaranteed_epsilon_never_exceeds_promise(self):
        from repro.core import epsilon_for_lambda

        for eps in (0.05, 0.4, 1.6):
            for fanout in (2, 4, 16):
                lam = lambda_for_epsilon(eps, fanout)
                assert epsilon_for_lambda(lam, fanout) <= eps * (1 + 1e-9)
