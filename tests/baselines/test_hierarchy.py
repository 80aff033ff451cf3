"""Tests for the Hierarchy baseline and its constrained inference."""

import numpy as np
import pytest

from repro.baselines import split_branchings
from repro.baselines.hierarchy import _hierarchy_histogram
from repro.spatial import average_relative_error, generate_workload


class TestSplitBranchings:
    def test_even_split(self):
        assert split_branchings(6, 2) == [8, 8]
        assert split_branchings(6, 3) == [4, 4, 4]

    def test_remainder_goes_first(self):
        assert split_branchings(7, 3) == [8, 4, 4]
        assert split_branchings(8, 3) == [8, 8, 4]

    def test_product_is_leaf_count(self):
        for exp in range(2, 10):
            for levels in range(1, exp + 1):
                bs = split_branchings(exp, levels)
                assert np.prod(bs) == 2**exp

    def test_too_many_levels_rejected(self):
        with pytest.raises(ValueError):
            split_branchings(3, 4)
        with pytest.raises(ValueError):
            split_branchings(3, 0)


class TestHierarchyHistogram:
    def test_paper_default_structure(self, uniform_2d):
        hist = _hierarchy_histogram(uniform_2d, epsilon=1.0, height=3, rng=0)
        assert hist.levels == 3
        assert hist.branchings == [8, 8]
        assert hist.leaf_grid.shape == (64, 64)

    def test_total_count_near_n(self, uniform_2d):
        hist = _hierarchy_histogram(uniform_2d, epsilon=1.0, rng=0)
        assert hist.leaf_grid.counts.sum() == pytest.approx(uniform_2d.n, rel=0.15)

    def test_consistency_children_sum_to_parent(self, uniform_2d):
        # After constrained inference, pooling the leaf level by the last
        # branching must reproduce the implied parent level exactly.
        from repro.baselines.hierarchy import _pool

        hist = _hierarchy_histogram(uniform_2d, epsilon=1.0, height=3, rng=0)
        # Rebuild with access to internals: run again at higher level count.
        leaf = hist.leaf_grid.counts
        parent = _pool(leaf, hist.branchings[-1])
        # Pool once more to the coarsest level and compare totals: a proxy
        # that consistency kept mass balanced across levels.
        assert parent.sum() == pytest.approx(leaf.sum())

    def test_noise_decreases_with_epsilon(self, uniform_2d):
        queries = generate_workload(uniform_2d.domain, "medium", 40, rng=1)
        errs = {}
        for eps in (0.05, 1.6):
            errs[eps] = np.mean(
                [
                    average_relative_error(
                        _hierarchy_histogram(uniform_2d, eps, rng=s).range_count,
                        uniform_2d,
                        queries,
                    )
                    for s in range(3)
                ]
            )
        assert errs[1.6] < errs[0.05]

    def test_taller_tree_more_levels(self, uniform_2d):
        hist = _hierarchy_histogram(
            uniform_2d, epsilon=1.0, height=5, leaf_cells_exponent=6, rng=0
        )
        assert hist.branchings == [4, 4, 2, 2]
        assert hist.leaf_grid.shape == (64, 64)

    def test_invalid_parameters(self, uniform_2d):
        with pytest.raises(ValueError):
            _hierarchy_histogram(uniform_2d, epsilon=0.0)
        with pytest.raises(ValueError):
            _hierarchy_histogram(uniform_2d, epsilon=1.0, height=1)
