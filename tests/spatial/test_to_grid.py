"""Tests for rasterizing a released tree onto a regular grid."""

import numpy as np
import pytest

from repro.domains import Box
from repro.spatial.quadtree import _privtree_histogram
from repro.spatial.histogram_tree import HistogramTree
from repro.spatial.serialize import tree_from_dict


def quadrant_tree() -> HistogramTree:
    quadrants = Box.unit(2).bisect()
    counts = [10.0, 20.0, 30.0, 40.0]
    children = [
        {"low": list(b.low), "high": list(b.high), "count": c}
        for b, c in zip(quadrants, counts)
    ]
    root = {"low": [0.0, 0.0], "high": [1.0, 1.0], "count": 100.0, "children": children}
    return tree_from_dict({"format": "repro.histogram_tree", "version": 1, "root": root})


class TestToGrid:
    def test_mass_conserved(self):
        grid = quadrant_tree().to_grid((8, 8))
        assert grid.sum() == pytest.approx(100.0)

    def test_aligned_grid_exact(self):
        # A 2x2 raster aligns exactly with the quadrants.
        grid = quadrant_tree().to_grid((2, 2))
        np.testing.assert_allclose(grid, [[10.0, 20.0], [30.0, 40.0]])

    def test_uniform_spread_within_leaf(self):
        grid = quadrant_tree().to_grid((4, 4))
        # Each quadrant spreads evenly over its 2x2 raster cells.
        np.testing.assert_allclose(grid[:2, :2], 10.0 / 4)
        np.testing.assert_allclose(grid[2:, 2:], 40.0 / 4)

    def test_coarser_than_leaves(self):
        grid = quadrant_tree().to_grid((1, 1))
        assert grid[0, 0] == pytest.approx(100.0)

    def test_matches_range_count_on_cells(self, clustered_2d):
        syn = _privtree_histogram(clustered_2d, epsilon=1.0, rng=0)
        shape = (8, 8)
        grid = syn.to_grid(shape)
        for i in (0, 3, 7):
            for j in (1, 4, 6):
                cell = Box(
                    (i / 8, j / 8),
                    ((i + 1) / 8, (j + 1) / 8),
                )
                assert grid[i, j] == pytest.approx(syn.range_count(cell), abs=1e-6)

    def test_shape_validation(self):
        tree = quadrant_tree()
        with pytest.raises(ValueError):
            tree.to_grid((4,))
        with pytest.raises(ValueError):
            tree.to_grid((0, 4))
