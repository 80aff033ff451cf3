"""Tests for the UG and AG grid baselines."""

import math

import numpy as np
import pytest

from repro.baselines import ug_cells_per_dim
from repro.baselines.ag import (
    _ag_histogram,
    ag_level1_cells_per_dim,
    ag_level2_cells_per_dim,
)
from repro.baselines.grid import UniformGrid
from repro.baselines.ug import _ug_histogram
from repro.domains import Box
from repro.spatial import SpatialDataset, average_relative_error, generate_workload


class TestUgGranularity:
    def test_paper_formula_2d(self):
        # m = (n*eps/10)^(2/(d+2)) = (n*eps/10)^(1/2) for d = 2.
        n, eps = 100_000, 1.0
        assert ug_cells_per_dim(n, 2, eps) == math.ceil((n * eps / 10) ** 0.5)

    def test_paper_formula_4d(self):
        n, eps = 100_000, 0.5
        assert ug_cells_per_dim(n, 4, eps) == math.ceil((n * eps / 10) ** (1.0 / 3.0))

    def test_size_factor_scales_total_cells(self):
        base = ug_cells_per_dim(100_000, 2, 1.0)
        bigger = ug_cells_per_dim(100_000, 2, 1.0, size_factor=9.0)
        assert bigger == math.ceil(3.0 * ((100_000 * 1.0 / 10) ** 0.5))
        assert bigger > base

    def test_minimum_one_cell(self):
        assert ug_cells_per_dim(0, 2, 0.05) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ug_cells_per_dim(10, 2, 0.0)
        with pytest.raises(ValueError):
            ug_cells_per_dim(-1, 2, 1.0)
        with pytest.raises(ValueError):
            ug_cells_per_dim(10, 2, 1.0, size_factor=0.0)


class TestUgHistogram:
    def test_grid_shape(self, uniform_2d):
        grid = _ug_histogram(uniform_2d, epsilon=1.0, rng=0)
        m = ug_cells_per_dim(uniform_2d.n, 2, 1.0)
        assert grid.shape == (m, m)

    def test_total_near_n(self, uniform_2d):
        grid = _ug_histogram(uniform_2d, epsilon=1.0, rng=0)
        assert grid.counts.sum() == pytest.approx(uniform_2d.n, rel=0.10)

    def test_reasonable_accuracy_on_uniform(self, uniform_2d):
        grid = _ug_histogram(uniform_2d, epsilon=1.0, rng=1)
        queries = generate_workload(uniform_2d.domain, "large", 40, rng=2)
        err = average_relative_error(grid.range_count, uniform_2d, queries)
        assert err < 0.2


class TestAgGranularity:
    def test_level1_quarter_of_ug(self):
        n, eps = 1_000_000, 1.0
        expected = math.ceil(math.sqrt(n * eps / 10.0) / 4.0)
        assert ag_level1_cells_per_dim(n, eps) == expected

    def test_level1_floor_of_ten(self):
        assert ag_level1_cells_per_dim(10, 0.05) == 10

    def test_level2_grows_with_count(self):
        assert ag_level2_cells_per_dim(10_000, 1.0) > ag_level2_cells_per_dim(100, 1.0)

    def test_level2_nonpositive_count(self):
        assert ag_level2_cells_per_dim(-5.0, 1.0) == 1


class TestAgHistogram:
    def test_rejects_non_2d(self):
        pts = np.zeros((10, 3))
        data = SpatialDataset(pts, Box((0.0,) * 3, (1.0,) * 3))
        with pytest.raises(ValueError):
            _ag_histogram(data, epsilon=1.0, rng=0)

    def test_dense_cells_get_refined(self, clustered_2d):
        ag = _ag_histogram(clustered_2d, epsilon=1.0, rng=0)
        assert len(ag.subgrids) > 0
        # The cluster sits near (0.25, 0.25); at least one subgrid should
        # cover that area.
        covering = [
            g for g in ag.subgrids.values()
            if g.domain.contains_points(np.array([[0.25, 0.25]]))[0]
        ]
        assert covering

    def test_subgrid_consistency_with_parent(self, clustered_2d):
        # After mean consistency each subgrid total is a blend of parent and
        # children noisy counts -> it must lie between the two raw values or
        # at least be finite and close to the exact count at high epsilon.
        ag = _ag_histogram(clustered_2d, epsilon=10.0, rng=0)
        for (i, j), sub in ag.subgrids.items():
            exact = clustered_2d.count_in(ag.level1.cell_box((i, j)))
            assert sub.counts.sum() == pytest.approx(exact, abs=60.0)

    def test_points_on_cell_edges_reach_the_subgrid_restrict_gives(self, monkeypatch):
        """The fit bins each point into its level-1 cell once; a point on an
        internal edge or the domain's low corner must land in the cell
        ``dataset.restrict`` gives it (half-open cells)."""
        domain = Box((0.0, -1.0), (3.0, 2.0))
        m1 = ag_level1_cells_per_dim(4_000, 10.0)
        edges = [np.linspace(lo, hi, m1 + 1) for lo, hi in zip(domain.low, domain.high)]
        on_edges = np.array([(x, y) for x in edges[0][:-1] for y in edges[1][:-1]])
        rng = np.random.default_rng(0)
        n_inner = 4_000 - 5 * len(on_edges)
        inner = rng.uniform(domain.low, domain.high, size=(n_inner, 2))
        points = np.concatenate([np.repeat(on_edges, 5, axis=0), inner])
        data = SpatialDataset(points, domain)

        binned = []
        histogram = UniformGrid.histogram

        def recording(dataset, shape):
            binned.append(dataset)
            return histogram(dataset, shape)

        monkeypatch.setattr(UniformGrid, "histogram", staticmethod(recording))
        ag = _ag_histogram(data, epsilon=10.0, rng=0)
        level1, *subgrids = binned
        assert level1 is data
        assert len(subgrids) == len(ag.subgrids) > m1 * m1 // 2
        assert sum(sub.n for sub in subgrids) > 0.5 * data.n
        for sub, (index, grid) in zip(subgrids, sorted(ag.subgrids.items())):
            assert sub.domain == grid.domain == ag.level1.cell_box(index)
            expected = data.restrict(sub.domain)
            assert np.array_equal(sub.points, expected.points)
            assert np.array_equal(
                histogram(sub, grid.shape).counts,
                histogram(expected, grid.shape).counts,
            )

    def test_range_count_total(self, clustered_2d):
        ag = _ag_histogram(clustered_2d, epsilon=2.0, rng=1)
        assert ag.range_count(clustered_2d.domain) == pytest.approx(
            clustered_2d.n, rel=0.15
        )

    def test_beats_ug_on_skewed_data(self, clustered_2d):
        # The consistent finding of Qardaji et al. reproduced in miniature.
        queries = generate_workload(clustered_2d.domain, "small", 60, rng=5)
        eps = 0.4
        ag_err = np.mean(
            [
                average_relative_error(
                    _ag_histogram(clustered_2d, eps, rng=s).range_count,
                    clustered_2d,
                    queries,
                )
                for s in range(5)
            ]
        )
        ug_err = np.mean(
            [
                average_relative_error(
                    _ug_histogram(clustered_2d, eps, rng=s).range_count,
                    clustered_2d,
                    queries,
                )
                for s in range(5)
            ]
        )
        assert ag_err < ug_err

    def test_invalid_alpha(self, clustered_2d):
        with pytest.raises(ValueError):
            _ag_histogram(clustered_2d, epsilon=1.0, alpha=0.0)
