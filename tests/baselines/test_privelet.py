"""Tests for the Privelet wavelet mechanism."""

import numpy as np
import pytest

from repro.baselines import haar_forward, haar_inverse, haar_weights
from repro.baselines.privelet import _privelet_histogram
from repro.spatial import average_relative_error, generate_workload


class TestHaarTransform:
    def test_roundtrip_1d(self, rng):
        x = rng.normal(size=64)
        np.testing.assert_allclose(haar_inverse(haar_forward(x)), x, atol=1e-10)

    def test_roundtrip_2d_both_axes(self, rng):
        x = rng.normal(size=(16, 32))
        c = haar_forward(haar_forward(x, axis=0), axis=1)
        back = haar_inverse(haar_inverse(c, axis=1), axis=0)
        np.testing.assert_allclose(back, x, atol=1e-10)

    def test_base_coefficient_is_mean(self):
        x = np.array([1.0, 3.0, 5.0, 7.0])
        coeffs = haar_forward(x)
        assert coeffs[0] == pytest.approx(4.0)

    def test_constant_signal_has_zero_details(self):
        coeffs = haar_forward(np.full(32, 7.0))
        assert coeffs[0] == pytest.approx(7.0)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_known_small_transform(self):
        # x = [a, b]: base (a+b)/2, detail (a-b)/2.
        coeffs = haar_forward(np.array([6.0, 2.0]))
        np.testing.assert_allclose(coeffs, [4.0, 2.0])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            haar_forward(np.zeros(12))
        with pytest.raises(ValueError):
            haar_inverse(np.zeros(12))


class TestHaarWeights:
    def test_layout_and_values(self):
        # n = 8, h = 3: [base=8, coarsest detail t=2 -> 8, two t=1 -> 4,
        # four t=0 -> 2].
        w = haar_weights(8)
        np.testing.assert_allclose(w, [8, 8, 4, 4, 2, 2, 2, 2])

    def test_weighted_sensitivity_is_h_plus_one(self):
        # Adding one unit to a single leaf changes coefficients by Delta;
        # sum |Delta| * W must be exactly h + 1 for every leaf position.
        n = 32
        h = 5
        w = haar_weights(n)
        for leaf in range(0, n, 7):
            delta = haar_forward(np.eye(n)[leaf])
            weighted = np.abs(delta) @ w
            assert weighted == pytest.approx(h + 1)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            haar_weights(10)


class TestPriveletHistogram:
    def test_shape_default(self, clustered_2d):
        hist = _privelet_histogram(clustered_2d, epsilon=1.0, rng=0)
        assert hist.grid.shape == (128, 128)

    def test_total_count_near_n(self, clustered_2d):
        hist = _privelet_histogram(clustered_2d, epsilon=1.0, rng=0)
        assert hist.grid.counts.sum() == pytest.approx(clustered_2d.n, rel=0.25)

    def test_noiseless_limit_recovers_exact_grid(self, clustered_2d):
        # With enormous epsilon the reconstruction approaches exact counts.
        from repro.baselines import UniformGrid

        hist = _privelet_histogram(clustered_2d, epsilon=1e9, rng=0, cells_per_dim=32)
        exact = UniformGrid.histogram(clustered_2d, (32, 32))
        np.testing.assert_allclose(hist.grid.counts, exact.counts, atol=1e-3)

    def test_error_decreases_with_epsilon(self, clustered_2d):
        queries = generate_workload(clustered_2d.domain, "large", 40, rng=2)
        errs = {}
        for eps in (0.05, 1.6):
            errs[eps] = np.mean(
                [
                    average_relative_error(
                        _privelet_histogram(clustered_2d, eps, rng=s).range_count,
                        clustered_2d,
                        queries,
                    )
                    for s in range(3)
                ]
            )
        assert errs[1.6] < errs[0.05]

    def test_4d_grid(self):
        from repro.domains import Box
        from repro.spatial import SpatialDataset

        pts = np.random.default_rng(0).uniform(0, 1, size=(2_000, 4)) * 0.999
        data = SpatialDataset(pts, Box.unit(4))
        hist = _privelet_histogram(data, epsilon=1.0, rng=0)
        assert hist.grid.shape == (16, 16, 16, 16)

    def test_invalid_parameters(self, clustered_2d):
        with pytest.raises(ValueError):
            _privelet_histogram(clustered_2d, epsilon=0.0)
        with pytest.raises(ValueError):
            _privelet_histogram(clustered_2d, epsilon=1.0, cells_per_dim=100)
