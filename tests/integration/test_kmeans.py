"""Tests for the private k-means application."""

import numpy as np
import pytest

from repro.applications import dplloyd_kmeans, kmeans_cost, privtree_kmeans
from repro.domains import Box
from repro.spatial import SpatialDataset
from repro.spatial.quadtree import _privtree_histogram


@pytest.fixture
def three_blobs() -> SpatialDataset:
    gen = np.random.default_rng(1)
    blobs = [
        gen.normal(loc=c, scale=0.03, size=(3_000, 2))
        for c in [(0.2, 0.2), (0.8, 0.3), (0.5, 0.8)]
    ]
    pts = np.clip(np.vstack(blobs), 0.0, 0.999999)
    return SpatialDataset(pts, Box.unit(2), name="blobs")


class TestPrivtreeKmeans:
    def test_returns_k_centers_in_domain(self, three_blobs):
        centers = privtree_kmeans(three_blobs, k=3, epsilon=1.0, rng=0)
        assert centers.shape == (3, 2)
        assert three_blobs.domain.contains_points(np.clip(centers, 0, 0.999999)).all()

    def test_recovers_blob_centers_at_high_epsilon(self, three_blobs):
        centers = privtree_kmeans(three_blobs, k=3, epsilon=4.0, rng=0)
        true_centers = np.array([(0.2, 0.2), (0.8, 0.3), (0.5, 0.8)])
        for truth in true_centers:
            nearest = np.linalg.norm(centers - truth, axis=1).min()
            assert nearest < 0.1

    def test_cost_near_nonprivate_baseline(self, three_blobs):
        private_cost = kmeans_cost(
            three_blobs, privtree_kmeans(three_blobs, k=3, epsilon=2.0, rng=0)
        )
        # A very good clustering of these blobs costs about 2 * 0.03^2.
        assert private_cost < 10 * (2 * 0.03**2)

    def test_reuses_existing_synopsis(self, three_blobs):
        synopsis = _privtree_histogram(three_blobs, epsilon=2.0, rng=0)
        a = privtree_kmeans(three_blobs, k=3, epsilon=2.0, rng=1, synopsis=synopsis)
        b = privtree_kmeans(three_blobs, k=3, epsilon=2.0, rng=1, synopsis=synopsis)
        np.testing.assert_allclose(a, b)

    def test_invalid_k(self, three_blobs):
        with pytest.raises(ValueError):
            privtree_kmeans(three_blobs, k=0, epsilon=1.0)


class TestDpLloyd:
    def test_returns_k_centers(self, three_blobs):
        centers = dplloyd_kmeans(three_blobs, k=3, epsilon=2.0, rng=0)
        assert centers.shape == (3, 2)

    def test_privtree_coarsening_beats_interactive_lloyd(self, three_blobs):
        # The Section 1 motivation in miniature: coarsen-then-mine spends
        # the budget once and wins over per-iteration noisy Lloyd at tight
        # budgets.  Medians over seeds defeat the local-minima lottery.
        eps = 0.2
        pt = np.median(
            [
                kmeans_cost(
                    three_blobs, privtree_kmeans(three_blobs, k=3, epsilon=eps, rng=s)
                )
                for s in range(8)
            ]
        )
        dl = np.median(
            [
                kmeans_cost(
                    three_blobs, dplloyd_kmeans(three_blobs, k=3, epsilon=eps, rng=s)
                )
                for s in range(8)
            ]
        )
        assert pt < dl

    def test_invalid_parameters(self, three_blobs):
        with pytest.raises(ValueError):
            dplloyd_kmeans(three_blobs, k=3, epsilon=0.0)
        with pytest.raises(ValueError):
            dplloyd_kmeans(three_blobs, k=3, epsilon=1.0, iterations=0)


class TestCost:
    def test_zero_for_centers_on_points(self):
        pts = np.array([[0.25, 0.25], [0.75, 0.75]])
        data = SpatialDataset(pts, Box.unit(2))
        assert kmeans_cost(data, pts) == 0.0

    def test_shape_validation(self, three_blobs):
        with pytest.raises(ValueError):
            kmeans_cost(three_blobs, np.zeros((3, 5)))
