"""Tests for the uniform grid substrate."""

import numpy as np
import pytest

from repro.baselines import UniformGrid
from repro.domains import Box
from repro.spatial import SpatialDataset


class TestConstruction:
    def test_histogram_counts_total(self, uniform_2d):
        grid = UniformGrid.histogram(uniform_2d, (8, 8))
        assert grid.counts.sum() == uniform_2d.n

    def test_histogram_cell_counts_exact(self):
        pts = np.array([[0.1, 0.1], [0.1, 0.2], [0.9, 0.9]])
        grid = UniformGrid.histogram(SpatialDataset(pts, Box.unit(2)), (2, 2))
        assert grid.counts[0, 0] == 2
        assert grid.counts[1, 1] == 1
        assert grid.counts[0, 1] == 0

    def test_shape_mismatch_rejected(self, uniform_2d):
        with pytest.raises(ValueError):
            UniformGrid.histogram(uniform_2d, (8, 8, 8))
        with pytest.raises(ValueError):
            UniformGrid(Box.unit(2), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts_refused(self, bad):
        with pytest.raises(ValueError, match="counts must be finite"):
            UniformGrid(Box((0.0,), (1.0,)), np.array([1.0, bad]))

    def test_edges(self):
        grid = UniformGrid(Box((0.0, 0.0), (4.0, 2.0)), np.zeros((4, 2)))
        np.testing.assert_allclose(grid.edges(0), [0, 1, 2, 3, 4])
        np.testing.assert_allclose(grid.edges(1), [0, 1, 2])

    def test_cell_box(self):
        grid = UniformGrid(Box.unit(2), np.zeros((2, 2)))
        box = grid.cell_box((1, 0))
        assert box.low == (0.5, 0.0)
        assert box.high == (1.0, 0.5)


class TestRangeCount:
    @pytest.fixture
    def grid(self) -> UniformGrid:
        counts = np.array([[1.0, 2.0], [3.0, 4.0]])
        return UniformGrid(Box.unit(2), counts)

    def test_full_domain(self, grid):
        assert grid.range_count(Box.unit(2)) == pytest.approx(10.0)

    def test_single_cell(self, grid):
        assert grid.range_count(Box((0.5, 0.0), (1.0, 0.5))) == pytest.approx(3.0)

    def test_fractional_cell(self, grid):
        # Left half of cell (0,0): half its count.
        assert grid.range_count(Box((0.0, 0.0), (0.25, 0.5))) == pytest.approx(0.5)

    def test_query_outside_domain_clipped(self, grid):
        assert grid.range_count(Box((2.0, 2.0), (3.0, 3.0))) == 0.0

    def test_query_partially_outside(self, grid):
        # Covers the whole grid plus slack: equals the total.
        big = Box((-1.0, -1.0), (2.0, 2.0))
        assert grid.range_count(big) == pytest.approx(10.0)

    def test_matches_exact_counts_on_aligned_queries(self, uniform_2d):
        grid = UniformGrid.histogram(uniform_2d, (16, 16))
        aligned = Box((0.25, 0.5), (0.75, 1.0))
        assert grid.range_count(aligned) == pytest.approx(
            uniform_2d.count_in(aligned)
        )

    def test_dimension_mismatch(self, grid):
        with pytest.raises(ValueError):
            grid.range_count(Box.unit(3))


class TestNoise:
    def test_with_noise_changes_counts(self, uniform_2d, rng):
        grid = UniformGrid.histogram(uniform_2d, (4, 4))
        noisy = grid.with_noise(1.0, rng)
        assert not np.allclose(noisy.counts, grid.counts)
        assert noisy.counts.shape == grid.counts.shape

    def test_noise_scale(self, rng):
        grid = UniformGrid(Box.unit(2), np.zeros((100, 100)))
        noisy = grid.with_noise(3.0, rng)
        assert noisy.counts.std() == pytest.approx(np.sqrt(2) * 3.0, rel=0.1)

    def test_invalid_scale(self, uniform_2d, rng):
        grid = UniformGrid.histogram(uniform_2d, (4, 4))
        with pytest.raises(ValueError):
            grid.with_noise(0.0, rng)
