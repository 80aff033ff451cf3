"""The v2 binary artifact codec and its integration into the store."""

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.api import release_from_json
from repro.api.releases import SpatialTreeRelease
from repro.serve import (
    ArtifactError,
    ArtifactIntegrityError,
    ReleaseStore,
    artifact_info,
    read_artifact,
    write_artifact,
)
from repro.spatial import FlatHistogram

from ..api.conftest import FAST_PARAMS
from .conftest import QUERY_BOXES, QUERY_CODES, fit_release


def _answers(release, kind):
    if kind == "spatial":
        return release.query_many(QUERY_BOXES)
    return release.query_many(QUERY_CODES)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_every_method_round_trips_bit_identically(
        self, name, tmp_path, uniform_2d, sequence_data
    ):
        release, kind = fit_release(name, uniform_2d, sequence_data)
        path = tmp_path / "release.bin"
        n_bytes = write_artifact(release, path)
        assert n_bytes == path.stat().st_size
        restored = read_artifact(path)
        assert type(restored) is type(release)
        assert restored.method == release.method
        assert restored.epsilon_spent == release.epsilon_spent
        assert np.array_equal(_answers(restored, kind), _answers(release, kind))

    @pytest.mark.parametrize("name", ["privtree", "pst", "ngram", "ag"])
    def test_mmap_answers_match_json_loaded_answers(
        self, name, tmp_path, uniform_2d, sequence_data
    ):
        release, kind = fit_release(name, uniform_2d, sequence_data)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        from_binary = read_artifact(path)
        from_json = release_from_json(json.loads(json.dumps(release.to_json())))
        assert np.array_equal(
            _answers(from_binary, kind), _answers(from_json, kind)
        )

    def test_json_envelope_survives_binary_round_trip(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        assert read_artifact(path).to_json() == release.to_json()

    def test_artifact_info_reads_header_only(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        path = tmp_path / "release.bin"
        n_bytes = write_artifact(release, path)
        info = artifact_info(path)
        assert info["format"] == "repro.release_artifact"
        assert info["version"] == 2
        assert info["kind"] == "spatial-tree"
        assert info["method"] == "privtree"
        assert info["bytes"] == n_bytes
        assert "counts" in info["segments"]


class TestIntegrity:
    @pytest.fixture
    def artifact(self, tmp_path, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        path = tmp_path / "release.bin"
        write_artifact(release, path)
        return path

    def test_truncated_file_rejected(self, artifact):
        data = artifact.read_bytes()
        artifact.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactError):
            read_artifact(artifact)

    def test_bit_flip_in_payload_rejected(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[len(data) // 2] ^= 0x01
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            read_artifact(artifact)

    def test_bit_flip_near_end_rejected(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[-60] ^= 0x80  # inside the last segment, before the footer
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            read_artifact(artifact)

    def test_wrong_magic_rejected(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[:8] = b"NOTREPRO"
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactError):
            read_artifact(artifact)

    def test_integrity_error_is_artifact_and_value_error(self):
        assert issubclass(ArtifactIntegrityError, ArtifactError)
        assert issubclass(ArtifactError, ValueError)


def _small_tree(**overrides):
    """A five-node tree: the root's left half is split again.

    Pre-order: 0 root, 1 left half, 2 and 3 its quarters, 4 right half.
    """
    arrays = {
        "lows": np.array(
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.5], [0.5, 0.0]]
        ),
        "highs": np.array(
            [[1.0, 1.0], [0.5, 1.0], [0.5, 0.5], [0.5, 1.0], [1.0, 1.0]]
        ),
        "counts": np.array([10.0, 6.0, 2.0, 4.0, 4.0]),
        "parents": np.array([-1, 0, 1, 1, 0], dtype=np.intp),
        "child_offsets": np.array([0, 2, 4, 4, 4, 4], dtype=np.intp),
        "child_index": np.array([1, 4, 2, 3], dtype=np.intp),
    }
    arrays.update(overrides)
    return FlatHistogram(**arrays)


def _write_tree(path, flat):
    """Write ``flat`` as a v2 artifact with a valid SHA-256 footer."""
    release = SpatialTreeRelease(flat=flat, method="privtree", epsilon_spent=1.0)
    write_artifact(release, path)
    return path


#: Crafted topologies, each with a footer that verifies.  Each would send
#: a query round a cycle, index past the arrays, or divide by a
#: degenerate volume.
CRAFTED_TREES = {
    "root_is_its_own_child": (
        {"child_index": np.array([0, 4, 2, 3], dtype=np.intp)},
        "out of range",
    ),
    "node_named_twice": (
        {"child_index": np.array([1, 1, 2, 3], dtype=np.intp)},
        "every non-root node once",
    ),
    "child_index_out_of_range": (
        {"child_index": np.array([1, 5, 2, 3], dtype=np.intp)},
        "out of range",
    ),
    "child_before_its_parent": (
        {
            "parents": np.array([-1, 0, 3, 1, 0], dtype=np.intp),
            "child_offsets": np.array([0, 2, 3, 3, 4, 4], dtype=np.intp),
            "child_index": np.array([1, 4, 3, 2], dtype=np.intp),
        },
        "precedes its parent",
    ),
    "offsets_fall": (
        {"child_offsets": np.array([0, 2, 1, 4, 4, 4], dtype=np.intp)},
        "child_offsets",
    ),
    "offsets_overshoot": (
        {"child_offsets": np.array([0, 2, 4, 4, 4, 5], dtype=np.intp)},
        "child_offsets",
    ),
    "parents_disagree": (
        {"parents": np.array([-1, 0, 1, 0, 0], dtype=np.intp)},
        "parents disagree",
    ),
    "root_has_a_parent": (
        {"parents": np.array([0, 0, 1, 1, 0], dtype=np.intp)},
        "parents disagree",
    ),
    "float_topology": (
        {"child_index": np.array([1.0, 4.0, 2.0, 3.0])},
        "must be integers",
    ),
    "short_counts": (
        {"counts": np.array([10.0, 6.0, 2.0, 4.0])},
        "counts has shape",
    ),
    "infinite_bound": (
        {"highs": np.array(
            [[1.0, 1.0], [0.5, 1.0], [0.5, 0.5], [0.5, np.inf], [1.0, 1.0]]
        )},
        "finite",
    ),
    "inverted_box": (
        {"lows": np.array(
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.5], [1.0, 0.0]]
        )},
        "lows < highs",
    ),
}


class TestCraftedArtifacts:
    """A footer any writer can compute proves intact bytes, not a tree:
    the loader checks the topology itself and fails closed."""

    def test_well_formed_tree_loads_and_answers(self, tmp_path):
        path = _write_tree(tmp_path / "tree.bin", _small_tree())
        restored = read_artifact(path)
        assert restored.height == 2
        assert restored.flat().range_count_arrays(
            np.array([[0.0, 0.0]]), np.array([[0.5, 1.0]])
        ).tolist() == [6.0]

    @pytest.mark.parametrize("verify", [True, False], ids=["verified", "unverified"])
    @pytest.mark.parametrize("case", sorted(CRAFTED_TREES))
    def test_crafted_topology_rejected(self, tmp_path, case, verify):
        overrides, message = CRAFTED_TREES[case]
        path = _write_tree(tmp_path / "crafted.bin", _small_tree(**overrides))
        with pytest.raises(ArtifactError, match=message):
            read_artifact(path, verify=verify)

    def test_crafted_artifact_in_a_store_fails_the_load(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="crafted")
        overrides, _ = CRAFTED_TREES["root_is_its_own_child"]
        _write_tree(store.root / "releases" / "crafted.bin", _small_tree(**overrides))
        with pytest.raises(ArtifactError):
            store.get("crafted")

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        header = b"[]"
        body = struct.pack("<8sII", b"REPROBIN", 2, len(header)) + header
        path = tmp_path / "list-header.bin"
        path.write_bytes(body + b"SHA2-256" + hashlib.sha256(body).digest())
        with pytest.raises(ArtifactError, match="not a JSON object"):
            read_artifact(path)
        with pytest.raises(ArtifactError, match="not a JSON object"):
            artifact_info(path)


class TestStoreIntegration:
    def test_put_writes_both_forms(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release, release_id="both")
        assert (store.root / "releases" / "both.json").exists()
        assert (store.root / "releases" / "both.bin").exists()
        entry = store.manifest_entry(release_id)
        assert entry["artifact_format"] == "binary-v2"
        assert (
            entry["artifact_bytes"]
            == (store.root / "releases" / "both.bin").stat().st_size
        )

    def test_get_prefers_binary_artifact(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="pref")
        # Corrupt the JSON envelope: a v2-preferring get never parses it.
        (store.root / "releases" / "pref.json").write_text("{not json")
        restored = store.get("pref")
        assert np.array_equal(
            _answers(restored, "spatial"), _answers(release, "spatial")
        )

    def test_v1_only_store_still_loads(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="legacy")
        (store.root / "releases" / "legacy.bin").unlink()
        restored = store.get("legacy")
        assert np.array_equal(
            _answers(restored, "spatial"), _answers(release, "spatial")
        )

    def test_migrate_upgrades_v1_entries(self, store, uniform_2d, sequence_data):
        spatial, _ = fit_release("privtree", uniform_2d, None)
        sequence, _ = fit_release("pst", None, sequence_data)
        store.put(spatial, release_id="a")
        store.put(sequence, release_id="b")
        # Simulate a pre-v2 store: drop the binaries and the manifest fields.
        for release_id in ("a", "b"):
            (store.root / "releases" / f"{release_id}.bin").unlink()
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["releases"].values():
            for key in ("artifact_format", "artifact_bytes", "binary_path"):
                entry.pop(key, None)
        manifest_path.write_text(json.dumps(manifest))

        assert sorted(store.migrate()) == ["a", "b"]
        for release_id in ("a", "b"):
            assert (store.root / "releases" / f"{release_id}.bin").exists()
            assert (
                store.manifest_entry(release_id)["artifact_format"] == "binary-v2"
            )
        # Idempotent: a second run has nothing left to upgrade.
        assert store.migrate() == []

    def test_corrupt_binary_fails_load_loudly(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        store.put(release, release_id="bad")
        path = store.root / "releases" / "bad.bin"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x04
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            store.get("bad")
