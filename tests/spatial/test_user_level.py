"""Tests for the §3.5 user-level (multi-leaf) extension."""

import numpy as np
import pytest

from repro.spatial.quadtree import _privtree_histogram


class TestTuplesPerIndividual:
    def test_noise_scales_with_x(self, uniform_2d):
        # With x = 10 the leaf-count noise is 10x larger: the total count's
        # deviation across seeds must grow accordingly.
        def total_spread(x: int) -> float:
            totals = [
                _privtree_histogram(
                    uniform_2d, epsilon=0.5, tuples_per_individual=x, rng=s
                ).total_count
                for s in range(25)
            ]
            return float(np.std(totals))

        assert total_spread(10) > 3.0 * total_spread(1)

    def test_coarser_trees_with_larger_x(self, clustered_2d):
        # User-level protection also makes split decisions noisier and more
        # conservative (sensitivity multiplies lambda and delta).
        sizes = {}
        for x in (1, 20):
            sizes[x] = np.mean(
                [
                    _privtree_histogram(
                        clustered_2d, epsilon=1.0, tuples_per_individual=x, rng=s
                    ).size
                    for s in range(5)
                ]
            )
        assert sizes[20] < sizes[1]

    def test_default_is_event_level(self, uniform_2d):
        a = _privtree_histogram(uniform_2d, epsilon=1.0, rng=0)
        b = _privtree_histogram(uniform_2d, epsilon=1.0, tuples_per_individual=1, rng=0)
        assert a.size == b.size
        assert a.total_count == pytest.approx(b.total_count)

    def test_invalid_x(self, uniform_2d):
        with pytest.raises(ValueError):
            _privtree_histogram(uniform_2d, epsilon=1.0, tuples_per_individual=0)
