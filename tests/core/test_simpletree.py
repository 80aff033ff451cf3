"""Tests for the SimpleTree baseline (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import simpletree, simpletree_for_epsilon

from .helpers import IntervalPayload


class TestSimpleTree:
    def test_height_limit_enforced(self):
        values = np.random.default_rng(0).uniform(0, 1, 5000)
        tree = simpletree(
            IntervalPayload.over_unit(values), lam=1e-9, theta=0.0, height=4, rng=0
        )
        assert tree.height <= 3  # height levels = 4 -> max depth 3

    def test_height_one_never_splits(self):
        values = np.random.default_rng(0).uniform(0, 1, 5000)
        tree = simpletree(
            IntervalPayload.over_unit(values), lam=1e-9, theta=0.0, height=1, rng=0
        )
        assert tree.size == 1

    def test_noisy_scores_recorded_everywhere(self):
        values = np.random.default_rng(1).uniform(0, 1, 1000)
        tree = simpletree(
            IntervalPayload.over_unit(values), lam=1.0, theta=0.0, height=3, rng=1
        )
        assert all(n.noisy_score is not None for n in tree.root.iter_nodes())

    def test_near_noiseless_split_rule(self):
        # 10 points below the threshold boundary: theta = 20 stops the root.
        values = np.full(10, 0.2)
        tree = simpletree(
            IntervalPayload.over_unit(values), lam=1e-9, theta=20.0, height=5, rng=0
        )
        assert tree.size == 1

    def test_epsilon_variant_uses_h_over_eps_scale(self):
        # With eps = 1 and height = 10 the noise scale is 10: on an empty
        # dataset the root's noisy count should vary on that scale.
        draws = []
        for seed in range(300):
            tree = simpletree_for_epsilon(
                IntervalPayload.over_unit([]), epsilon=1.0, theta=1e9, height=10, rng=seed
            )
            draws.append(tree.root.noisy_score)
        # Lap(10) has std ~14.1; empirical std should be way above Lap(1)'s.
        assert np.std(draws) == pytest.approx(np.sqrt(2) * 10.0, rel=0.2)

    def test_invalid_parameters(self):
        payload = IntervalPayload.over_unit([])
        with pytest.raises(ValueError):
            simpletree(payload, lam=0.0, theta=0.0, height=2)
        with pytest.raises(ValueError):
            simpletree(payload, lam=1.0, theta=0.0, height=0)

    @pytest.mark.parametrize("height", [2.5, 3.0, True])
    def test_non_integer_height_rejected_before_any_draw(self, height):
        # 2.5 once grew 3 levels.
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        payload = IntervalPayload.over_unit(np.linspace(0.0, 0.99, 50))
        with pytest.raises(ValueError, match="height must be an integer"):
            simpletree(payload, lam=1e-9, theta=0.0, height=height, rng=gen)
        assert gen.bit_generator.state == state

    def test_numpy_integer_height_accepted(self):
        values = np.linspace(0.0, 0.99, 200)
        tree = simpletree(
            IntervalPayload.over_unit(values), lam=1e-9, theta=0.0, height=np.int64(3), rng=0
        )
        assert tree.height == 2
