"""Tests for the private k-d tree baseline."""

import numpy as np
import pytest

from repro.baselines.kdtree import _kdtree_histogram
from repro.spatial import average_relative_error, generate_workload


class TestKdTree:
    def test_structure_is_binary(self, uniform_2d):
        tree = _kdtree_histogram(uniform_2d, epsilon=1.0, height=4, rng=0)
        for node in tree.root.iter_nodes():
            assert len(node.children) in (0, 2)
        assert tree.height == 3

    def test_total_count_near_n(self, uniform_2d):
        tree = _kdtree_histogram(uniform_2d, epsilon=1.0, rng=0)
        assert tree.total_count == pytest.approx(uniform_2d.n, rel=0.10)

    def test_splits_near_median_at_high_epsilon(self, clustered_2d):
        # With a large budget the first split should land near the x-median.
        tree = _kdtree_histogram(clustered_2d, epsilon=100.0, height=2, rng=0)
        cut = tree.root.children[0].box.high[0]
        true_median = float(np.median(clustered_2d.points[:, 0]))
        assert abs(cut - true_median) < 0.15

    def test_height_one_is_single_node(self, uniform_2d):
        tree = _kdtree_histogram(uniform_2d, epsilon=1.0, height=1, rng=0)
        assert tree.size == 1

    def test_error_decreases_with_epsilon(self, clustered_2d):
        queries = generate_workload(clustered_2d.domain, "large", 30, rng=1)
        errs = {}
        for eps in (0.05, 1.6):
            errs[eps] = np.mean(
                [
                    average_relative_error(
                        _kdtree_histogram(clustered_2d, eps, rng=s).range_count,
                        clustered_2d,
                        queries,
                    )
                    for s in range(3)
                ]
            )
        assert errs[1.6] < errs[0.05]

    def test_children_tile_parent(self, uniform_2d):
        tree = _kdtree_histogram(uniform_2d, epsilon=1.0, height=5, rng=2)
        for node in tree.root.iter_nodes():
            if node.children:
                vol = sum(c.box.volume for c in node.children)
                assert vol == pytest.approx(node.box.volume)

    def test_invalid_parameters(self, uniform_2d):
        with pytest.raises(ValueError):
            _kdtree_histogram(uniform_2d, epsilon=0.0)
        with pytest.raises(ValueError):
            _kdtree_histogram(uniform_2d, epsilon=1.0, height=0)
        with pytest.raises(ValueError):
            _kdtree_histogram(uniform_2d, epsilon=1.0, split_fraction=1.0)
