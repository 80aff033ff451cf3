"""Tests for the (intentionally non-private) SVT quadtree demonstration."""

import numpy as np
import pytest

from repro.svt import binary_svt_decomposition


class TestSvtDecomposition:
    def test_builds_a_tree(self, clustered_2d):
        tree = binary_svt_decomposition(clustered_2d, epsilon=1.0, theta=100.0, rng=0)
        assert tree.size >= 1
        assert tree.root.box == clustered_2d.domain

    def test_adapts_to_density(self, clustered_2d):
        tree = binary_svt_decomposition(clustered_2d, epsilon=2.0, theta=50.0, rng=1)
        if tree.size > 1:
            # Deepest leaves should sit near the cluster at (0.25, 0.25).
            leaves = [n for n in tree.root.iter_nodes() if n.is_leaf]
            smallest = min(leaves, key=lambda n: n.box.volume)
            assert abs(smallest.box.center[0] - 0.25) < 0.3
            assert abs(smallest.box.center[1] - 0.25) < 0.3

    def test_max_depth_respected(self, clustered_2d):
        tree = binary_svt_decomposition(
            clustered_2d, epsilon=10.0, theta=0.0, max_depth=3, rng=2
        )
        assert tree.height <= 3

    def test_high_threshold_yields_single_node(self, clustered_2d):
        tree = binary_svt_decomposition(clustered_2d, epsilon=1.0, theta=1e9, rng=0)
        assert tree.size == 1

    def test_invalid_epsilon(self, clustered_2d):
        with pytest.raises(ValueError):
            binary_svt_decomposition(clustered_2d, epsilon=0.0, theta=0.0)

    def test_negative_max_depth_rejected(self, clustered_2d):
        # Once silently the root alone.
        with pytest.raises(ValueError, match="max_depth"):
            binary_svt_decomposition(clustered_2d, epsilon=1.0, theta=0.0, max_depth=-1)

    @pytest.mark.parametrize("max_depth", [2.5, 3.0, True])
    def test_non_integer_max_depth_rejected(self, clustered_2d, max_depth):
        # 2.5 once grew a height-3 tree.
        with pytest.raises(ValueError, match="max_depth must be an integer"):
            binary_svt_decomposition(
                clustered_2d, epsilon=10.0, theta=0.0, max_depth=max_depth, rng=2
            )

    def test_numpy_integer_max_depth_accepted(self, clustered_2d):
        tree = binary_svt_decomposition(
            clustered_2d, epsilon=10.0, theta=0.0, max_depth=np.int64(2), rng=2
        )
        assert tree.height == 2
