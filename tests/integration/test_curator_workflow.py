"""End-to-end curator workflows: the library's intended usage, verified.

Each test walks the full path a data curator would: sensitive data in,
ε-DP artifact out, artifact shipped (serialized), consumed by a party that
never sees the raw data, and validated for utility.
"""

import numpy as np
import pytest

from repro.domains import Box
from repro.sequence import (
    MarkovModel,
    load_pst,
    private_pst,
    save_pst,
)
from repro.spatial import (
    SpatialDataset,
    average_relative_error,
    generate_workload,
    load_tree,
    save_tree,
)
from repro.spatial.quadtree import _privtree_histogram


class TestSpatialCuratorWorkflow:
    def test_publish_ship_consume(self, clustered_2d, tmp_path):
        # Curator side: one ε-DP release, written to disk.
        epsilon = 1.0
        synopsis = _privtree_histogram(clustered_2d, epsilon, rng=0)
        path = tmp_path / "release.json"
        save_tree(synopsis, path)

        # Consumer side: loads the artifact, never touches the points.
        release = load_tree(path)
        queries = generate_workload(release.root.box, "medium", 40, rng=1)
        answers = [release.range_count(q) for q in queries]
        assert all(np.isfinite(a) for a in answers)

        # Utility check against ground truth (curator-side audit).
        err = average_relative_error(release.range_count, clustered_2d, queries)
        assert err < 0.5

        # The artifact carries no raw coordinates: its JSON mentions only
        # boxes and counts, and the number of stored values is far below n.
        n_values = sum(1 for _ in release.root.iter_nodes())
        assert n_values < clustered_2d.n / 3

    def test_release_reuse_is_free(self, clustered_2d):
        # Postprocessing freedom: the same release feeds queries, a raster,
        # and k-means without further privacy spend.
        from repro.applications import kmeans_cost, privtree_kmeans

        synopsis = _privtree_histogram(clustered_2d, epsilon=1.0, rng=0)
        raster = synopsis.to_grid((16, 16))
        assert raster.sum() == pytest.approx(synopsis.total_count, rel=1e-6)
        centers = privtree_kmeans(
            clustered_2d, k=2, epsilon=1.0, rng=1, synopsis=synopsis
        )
        assert kmeans_cost(clustered_2d, centers) < 1.0


class TestSequenceCuratorWorkflow:
    def test_publish_ship_consume(self, tmp_path):
        from repro.datasets import msnbclike

        data = msnbclike(5_000, rng=0)
        model_path = tmp_path / "pst.json"
        save_pst(private_pst(data, epsilon=1.0, l_top=20, rng=0), model_path)

        release = load_pst(model_path)
        # Consumer: mine strings, sample synthetic data, score likelihoods.
        top = release.top_k_strings(10, max_length=6)
        assert len(top) == 10
        synthetic = release.sample_dataset(200, rng=1, max_length=20)
        assert len(synthetic) == 200
        lm = MarkovModel(release)
        ll = lm.sequence_log_likelihood(synthetic[0]) if len(synthetic[0]) else None
        if ll is not None:
            assert ll < 0.0

    def test_budget_is_respected_across_two_releases(self, tmp_path):
        # Two independent releases must each carry their own budget: the
        # curator splits manually and the accountant enforces the sum.
        from repro.mechanisms import BudgetExceededError, PrivacyAccountant

        gen = np.random.default_rng(0)
        pts = gen.uniform(0, 1, size=(2_000, 2)) * 0.999
        data = SpatialDataset(pts, Box.unit(2))
        acc = PrivacyAccountant(1.0)
        _privtree_histogram(data, acc.spend(0.6, "coarse release"), rng=1)
        _privtree_histogram(data, acc.spend(0.4, "refined release"), rng=2)
        with pytest.raises(BudgetExceededError):
            acc.spend(0.1, "one release too many")
