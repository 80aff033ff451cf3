"""Release artifacts: uniform query surface and JSON round-trips."""

import json

import numpy as np
import pytest

from repro.api import (
    Release,
    from_spec,
    load_release,
    release_from_json,
    save_release,
)
from repro.domains import Box

from .conftest import FAST_PARAMS

QUERY_BOXES = [
    Box((0.1, 0.1), (0.4, 0.5)),
    Box((0.0, 0.0), (1.0, 1.0)),
    Box((0.55, 0.2), (0.85, 0.95)),
]


def _release(name, uniform_2d, sequence_data, rng=0):
    kind, params = FAST_PARAMS[name]
    dataset = uniform_2d if kind == "spatial" else sequence_data
    return from_spec(name, epsilon=1.0, **params).fit(dataset, rng=rng), kind


class TestUniformSurface:
    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_query_size_and_cost(self, name, uniform_2d, sequence_data):
        release, kind = _release(name, uniform_2d, sequence_data)
        assert release.size >= 1
        assert release.epsilon_spent == 1.0
        if kind == "spatial":
            value = release.query(QUERY_BOXES[0])
        else:
            value = release.query([0, 1])
        assert np.isfinite(value)

    def test_spatial_total_roughly_n(self, uniform_2d):
        release, _ = _release("privtree", uniform_2d, None)
        total = release.query(Box((0.0, 0.0), (1.0, 1.0)))
        assert total == pytest.approx(uniform_2d.n, rel=0.2)

    def test_repr_mentions_method_and_cost(self, uniform_2d):
        release, _ = _release("ug", uniform_2d, None)
        assert "ug" in repr(release)
        assert "epsilon_spent" in repr(release)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_round_trip_preserves_queries(self, name, uniform_2d, sequence_data):
        release, kind = _release(name, uniform_2d, sequence_data)
        document = json.loads(json.dumps(release.to_json()))  # via actual JSON
        restored = release_from_json(document)
        assert type(restored) is type(release)
        assert restored.method == release.method
        assert restored.epsilon_spent == release.epsilon_spent
        assert restored.size == release.size
        if kind == "spatial":
            for box in QUERY_BOXES:
                assert restored.query(box) == pytest.approx(
                    release.query(box), rel=1e-12, abs=1e-9
                )
        else:
            for codes in ([0], [1, 2], [0, 1, 0]):
                assert restored.query(codes) == pytest.approx(
                    release.query(codes), rel=1e-12, abs=1e-9
                )

    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_json_text_is_json_dumps_of_to_json(self, name, uniform_2d, sequence_data):
        release, _ = _release(name, uniform_2d, sequence_data)
        assert release.to_json_text() == json.dumps(release.to_json())

    def test_json_text_of_a_stored_release(self, tmp_path, uniform_2d):
        """A release mmap-loaded from the store writes the same bytes as
        json.dumps of its document, and as the stored file."""
        from repro.serve import ReleaseStore

        store = ReleaseStore(tmp_path)
        release_id = store.put(_release("privtree", uniform_2d, None)[0])
        loaded = store.get(release_id)
        assert isinstance(loaded.flat().lows, np.memmap)
        text = loaded.to_json_text()
        assert text == json.dumps(loaded.to_json())
        assert text == (tmp_path / "releases" / f"{release_id}.json").read_text()

    def test_from_json_classmethod_dispatches(self, uniform_2d):
        release, _ = _release("kdtree", uniform_2d, None)
        restored = Release.from_json(release.to_json())
        assert type(restored) is type(release)

    def test_save_and_load_file(self, tmp_path, uniform_2d):
        release, _ = _release("privtree", uniform_2d, None)
        path = tmp_path / "release.json"
        save_release(release, path)
        restored = load_release(path)
        assert restored.query(QUERY_BOXES[0]) == pytest.approx(
            release.query(QUERY_BOXES[0])
        )

    def test_header_validation(self):
        with pytest.raises(ValueError, match="not a release"):
            release_from_json({"format": "something-else"})
        with pytest.raises(ValueError, match="version"):
            release_from_json({"format": "repro.release", "version": 99})
        with pytest.raises(ValueError, match="kind"):
            release_from_json(
                {"format": "repro.release", "version": 1, "kind": "nope"}
            )

    def test_missing_provenance_keys_raise(self, uniform_2d):
        """An untrusted document without method / epsilon_spent must fail
        loudly instead of silently defaulting to method="" / 0.0."""
        release, _ = _release("privtree", uniform_2d, None)
        for key in ("method", "epsilon_spent"):
            document = release.to_json()
            del document[key]
            with pytest.raises(ValueError, match=key):
                release_from_json(document)

    def test_default_query_many_returns_float64(self):
        """The fallback batch path must hand the wire layer float64 — the
        HTTP layer JSON-serializes whatever dtype comes back."""

        class MinimalRelease(Release):
            # kind left empty on purpose: not a registered wire artifact.
            @property
            def size(self):
                return 1

            def query(self, q):
                return int(q)  # an int on purpose: the fallback must coerce

            def _payload(self):
                return {}

            @classmethod
            def _from_payload(cls, payload, *, method, epsilon_spent):
                raise NotImplementedError

        release = MinimalRelease(method="minimal", epsilon_spent=0.0)
        answers = release.query_many(iter([1, 2, 3]))
        assert answers.dtype == np.float64
        assert answers.tolist() == [1.0, 2.0, 3.0]

    def test_sequence_release_sampling_survives_round_trip(self, sequence_data):
        release, _ = _release("pst", None, sequence_data)
        restored = release_from_json(release.to_json())
        a = release.sample_dataset(20, rng=5, max_length=15)
        b = restored.sample_dataset(20, rng=5, max_length=15)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
