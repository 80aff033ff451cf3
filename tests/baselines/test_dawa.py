"""Tests for the DAWA-lite baseline."""

import numpy as np
import pytest

from repro.baselines import private_partition
from repro.baselines.dawa import _dawa_histogram
from repro.spatial import average_relative_error, generate_workload


class TestPrivatePartition:
    def test_boundaries_well_formed(self, rng):
        cells = rng.poisson(5.0, size=64).astype(float)
        bounds = private_partition(cells, epsilon=1.0, rng=rng)
        assert bounds[0] == 0
        assert bounds[-1] == 64
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_uniform_region_merged_at_high_epsilon(self):
        # A flat sequence should collapse into few large buckets: merging
        # costs nothing in deviation and saves per-bucket noise.
        cells = np.full(256, 10.0)
        bounds = private_partition(cells, epsilon=50.0, rng=0)
        assert len(bounds) - 1 <= 16

    def test_step_change_split_at_high_epsilon(self):
        # Two very different uniform halves: some boundary should fall at or
        # near the step, and the two sides should not be one giant bucket.
        cells = np.concatenate([np.zeros(128), np.full(128, 1000.0)])
        bounds = private_partition(cells, epsilon=50.0, rng=0)
        n_buckets = len(bounds) - 1
        assert n_buckets >= 2
        assert 128 in bounds

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            private_partition(np.array([]), epsilon=1.0)
        with pytest.raises(ValueError):
            private_partition(np.ones(4), epsilon=0.0)

    def test_deterministic_given_seed(self):
        cells = np.random.default_rng(3).poisson(3.0, size=128).astype(float)
        a = private_partition(cells, epsilon=1.0, rng=7)
        b = private_partition(cells, epsilon=1.0, rng=7)
        assert a == b


class TestDawaHistogram:
    def test_grid_shape_default(self, clustered_2d):
        hist = _dawa_histogram(clustered_2d, epsilon=1.0, rng=0)
        assert hist.grid.shape == (128, 128)

    def test_total_count_near_n(self, clustered_2d):
        hist = _dawa_histogram(clustered_2d, epsilon=1.0, rng=0)
        assert hist.grid.counts.sum() == pytest.approx(clustered_2d.n, rel=0.2)

    def test_bucket_count_reported(self, clustered_2d):
        hist = _dawa_histogram(clustered_2d, epsilon=1.0, rng=0)
        assert hist.n_buckets == len(hist.boundaries) - 1
        assert 1 <= hist.n_buckets <= 128 * 128

    def test_adapts_fewer_buckets_than_cells_on_skewed_data(self, clustered_2d):
        # The point of DAWA: empty space merges into large buckets.
        hist = _dawa_histogram(clustered_2d, epsilon=1.0, rng=1)
        assert hist.n_buckets < hist.grid.n_cells / 2

    def test_4d_uses_morton(self):
        from repro.domains import Box
        from repro.spatial import SpatialDataset

        pts = np.random.default_rng(0).uniform(0, 1, size=(2_000, 4)) * 0.999
        data = SpatialDataset(pts, Box.unit(4))
        hist = _dawa_histogram(data, epsilon=1.0, rng=0)
        assert hist.grid.shape == (8, 8, 8, 8)

    def test_error_decreases_with_epsilon(self, clustered_2d):
        queries = generate_workload(clustered_2d.domain, "medium", 40, rng=2)
        errs = {}
        for eps in (0.05, 1.6):
            errs[eps] = np.mean(
                [
                    average_relative_error(
                        _dawa_histogram(clustered_2d, eps, rng=s).range_count,
                        clustered_2d,
                        queries,
                    )
                    for s in range(3)
                ]
            )
        assert errs[1.6] < errs[0.05]

    def test_invalid_parameters(self, clustered_2d):
        with pytest.raises(ValueError):
            _dawa_histogram(clustered_2d, epsilon=1.0, cells_per_dim=100)
        with pytest.raises(ValueError):
            _dawa_histogram(clustered_2d, epsilon=1.0, rho=1.5)
