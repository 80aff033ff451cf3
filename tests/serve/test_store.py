"""ReleaseStore: put/get round-trips, the manifest, and crash safety."""

import json

import numpy as np
import pytest

from repro import from_spec
from repro.api import release_from_json
from repro.serve import ReleaseStore, StoreError, read_artifact

from .conftest import FAST_PARAMS, QUERY_BOXES, QUERY_CODES, fit_release

FLAT_ARRAYS = ("lows", "highs", "counts", "parents", "child_offsets", "child_index")


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_every_method_round_trips(self, name, store, uniform_2d, sequence_data):
        release, kind = fit_release(name, uniform_2d, sequence_data)
        release_id = store.put(release, dataset="test")
        restored = store.get(release_id)
        assert type(restored) is type(release)
        assert restored.epsilon_spent == release.epsilon_spent
        assert restored.size == release.size
        queries = QUERY_BOXES if kind == "spatial" else QUERY_CODES
        np.testing.assert_allclose(
            restored.query_many(queries),
            release.query_many(queries),
            rtol=1e-12,
            atol=1e-9,
        )

    def test_privtree_answers_bit_identical(self, store, uniform_2d):
        # The store is the wire format: for the tree synopses the round
        # trip must not change a single float.
        release, _ = fit_release("privtree", uniform_2d, None)
        restored = store.get(store.put(release))
        assert np.array_equal(
            restored.query_many(QUERY_BOXES), release.query_many(QUERY_BOXES)
        )


class TestPublishPath:
    """fit -> put never builds the pointer tree, and both stored forms
    give back the fitted arrays."""

    @pytest.mark.parametrize(
        "seed, knobs",
        [
            (0, {}),
            (1, {"dims_per_split": 1}),
            (2, {"count_mechanism": "geometric", "tuples_per_individual": 2}),
            (3, {"theta": 3.0, "tree_fraction": 0.3}),
        ],
    )
    def test_put_writes_the_fitted_arrays(self, store, clustered_2d, seed, knobs):
        release = from_spec("privtree", epsilon=1.0, **knobs).fit(clustered_2d, rng=seed)
        self.assert_put_writes_the_fitted_arrays(store, release)

    @pytest.mark.parametrize(
        "seed, knobs",
        [(4, {}), (5, {"height": 5, "theta": 3.0, "dims_per_split": 1})],
    )
    def test_simpletree_put_writes_the_fitted_arrays(
        self, store, clustered_2d, seed, knobs
    ):
        release = from_spec("simpletree", epsilon=1.0, **knobs).fit(clustered_2d, rng=seed)
        self.assert_put_writes_the_fitted_arrays(store, release)

    @staticmethod
    def assert_put_writes_the_fitted_arrays(store, release):
        assert release.tree._root is None
        release_id = store.put(release)
        assert release.tree._root is None
        releases = store.root / "releases"
        from_json = release_from_json(
            json.loads((releases / f"{release_id}.json").read_text())
        )
        from_bin = read_artifact(releases / f"{release_id}.bin")
        for stored in (from_json, from_bin):
            for name in FLAT_ARRAYS:
                got = getattr(stored.flat(), name)
                want = getattr(release.flat(), name)
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)


class TestManifest:
    def test_entry_records_provenance(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(
            release, dataset="uniform2d(n=5000)", params={"epsilon": 1.0}
        )
        entry = store.manifest_entry(release_id)
        assert entry["method"] == "privtree"
        assert entry["kind"] == "spatial-tree"
        assert entry["epsilon_spent"] == 1.0
        assert entry["dataset"] == "uniform2d(n=5000)"
        assert entry["params"] == {"epsilon": 1.0}
        assert entry["created_at"].endswith("Z")
        assert entry["size"] == release.size

    def test_default_id_is_content_addressed(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        first = store.put(release)
        second = store.put(release)  # identical artifact -> idempotent
        assert first == second
        assert len(store) == 1
        assert first.startswith("privtree-")

    def test_explicit_id_and_listing(self, store, uniform_2d):
        release, _ = fit_release("ug", uniform_2d, None)
        store.put(release, release_id="grid-a")
        store.put(release, release_id="grid-b")
        assert store.ids() == ["grid-a", "grid-b"]
        assert [e["id"] for e in store.entries()] == ["grid-a", "grid-b"]
        assert "grid-a" in store and "nope" not in store

    def test_invalid_id_rejected(self, store, uniform_2d):
        release, _ = fit_release("ug", uniform_2d, None)
        for bad in ("../escape", "a/b", "", ".hidden", "x" * 200):
            with pytest.raises(ValueError, match="invalid release id"):
                store.put(release, release_id=bad)

    def test_unknown_id_raises_store_error(self, store):
        with pytest.raises(StoreError, match="unknown release id"):
            store.get("missing")
        with pytest.raises(StoreError):
            store.manifest_entry("missing")

    def test_manifest_survives_reopen(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = ReleaseStore(tmp_path / "s").put(release, dataset="d")
        reopened = ReleaseStore(tmp_path / "s")
        assert reopened.ids() == [release_id]
        assert reopened.get(release_id).size == release.size

    def test_read_only_open_requires_existing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="does not exist"):
            ReleaseStore(tmp_path / "nowhere", create=False)
        assert not (tmp_path / "nowhere").exists()
        # An existing store opens read-only fine.
        ReleaseStore(tmp_path / "real")
        assert ReleaseStore(tmp_path / "real", create=False).ids() == []

    def test_foreign_manifest_rejected(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps({"format": "something"}))
        with pytest.raises(ValueError, match="not a release-store manifest"):
            ReleaseStore(root).ids()

    def test_latest_picks_the_newest_epoch_id(self, store, uniform_2d):
        # Zero-padded ids make lexicographic order epoch order, so `latest`
        # is the serve layer's "as of now" over a continual-release series.
        release, _ = fit_release("ug", uniform_2d, None)
        for epoch in (0, 2, 10):
            store.put(release, release_id=f"epoch-{epoch:04d}")
        store.put(release, release_id="other-9999")
        assert store.latest("epoch-") == "epoch-0010"
        assert store.latest("other-") == "other-9999"

    def test_latest_without_match_raises(self, store, uniform_2d):
        with pytest.raises(StoreError, match="no release id starts with"):
            store.latest("epoch-")
        release, _ = fit_release("ug", uniform_2d, None)
        store.put(release, release_id="grid-a")
        with pytest.raises(StoreError, match="grid-a"):
            store.latest("epoch-")


class TestCrashSafety:
    def test_failed_write_preserves_previous_artifact(
        self, store, uniform_2d, monkeypatch
    ):
        # A crash mid-write must leave the previously published document
        # intact: the new bytes only land via os.replace.
        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release, release_id="synopsis")
        before = (store.root / "releases" / "synopsis.json").read_text()

        def exploding_replace(src, dst):
            raise OSError("disk full")

        other, _ = fit_release("privtree", uniform_2d, None, rng=9)
        monkeypatch.setattr("repro._io.os.replace", exploding_replace)
        with pytest.raises(OSError, match="disk full"):
            store.put(other, release_id="synopsis")
        monkeypatch.undo()

        assert (store.root / "releases" / "synopsis.json").read_text() == before
        assert not list((store.root / "releases").glob("*.tmp"))
        restored = store.get(release_id)
        assert restored.size == release.size
