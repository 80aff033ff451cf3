"""SynopsisService: lazy loading, LRU bounds, and batch dispatch."""

import numpy as np
import pytest

from repro.queries import RangeCount, StringFrequency
from repro.serve import ReleaseStore, StoreError, SynopsisService

from .conftest import QUERY_BOXES, QUERY_CODES, fit_release

#: The typed wire documents of the shared query boxes and code lists.
BOX_DOCS = [RangeCount.of(b).to_wire() for b in QUERY_BOXES]
CODE_DOCS = [StringFrequency(codes=tuple(c)).to_wire() for c in QUERY_CODES]


class TestCacheBehaviour:
    def test_first_access_misses_then_hits(self, spatial_store):
        store, ids = spatial_store
        service = SynopsisService(store, cache_size=4)
        service.query_many(ids[0], QUERY_BOXES)
        service.query_many(ids[0], QUERY_BOXES)
        assert service.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "resident": 1,
            "batches": 0,  # query_many is the in-process legacy surface;
            "queries": 0,  # batch counters track the wire paths
        }

    def test_lru_eviction_and_reload(self, spatial_store):
        store, ids = spatial_store
        service = SynopsisService(store, cache_size=2)
        answers = {i: service.query_many(i, QUERY_BOXES) for i in ids}
        # Three loads through a 2-slot cache: the first id was evicted.
        assert service.stats()["evictions"] == 1
        assert service.cached_ids() == [ids[1], ids[2]]
        # Touching the evicted id is a fresh miss, with identical answers.
        again = service.query_many(ids[0], QUERY_BOXES)
        assert np.array_equal(again, answers[ids[0]])
        assert service.stats()["misses"] == 4
        assert service.cached_ids() == [ids[2], ids[0]]

    def test_recency_updates_on_hit(self, spatial_store):
        store, ids = spatial_store
        service = SynopsisService(store, cache_size=2)
        service.release(ids[0])
        service.release(ids[1])
        service.release(ids[0])  # refresh id 0 -> id 1 becomes LRU
        service.release(ids[2])
        assert service.cached_ids() == [ids[0], ids[2]]

    def test_cache_size_zero_disables_caching(self, spatial_store):
        store, ids = spatial_store
        service = SynopsisService(store, cache_size=0)
        service.query_many(ids[0], QUERY_BOXES)
        service.query_many(ids[0], QUERY_BOXES)
        assert service.stats() == {
            "hits": 0,
            "misses": 2,
            "evictions": 0,
            "resident": 0,
            "batches": 0,
            "queries": 0,
        }

    def test_negative_cache_size_rejected(self, store):
        with pytest.raises(ValueError, match="cache_size"):
            SynopsisService(store, cache_size=-1)

    def test_unknown_id_propagates(self, store):
        with pytest.raises(StoreError):
            SynopsisService(store).query_many("nope", QUERY_BOXES)

    def test_unknown_ids_do_not_grow_guard_table(self, store):
        # Untrusted clients invent ids freely; a failed lookup must not
        # leave a permanent per-id lock behind.
        service = SynopsisService(store)
        for i in range(5):
            with pytest.raises(StoreError):
                service.release(f"bogus-{i}")
        assert len(service._load_locks) == 0


class TestDispatch:
    def test_spatial_answers_match_release(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release)
        service = SynopsisService(store)
        assert np.array_equal(
            service.query_many(release_id, QUERY_BOXES),
            release.query_many(QUERY_BOXES),
        )

    def test_sequence_answers_match_release(self, store, sequence_data):
        release, _ = fit_release("pst", None, sequence_data)
        release_id = store.put(release)
        service = SynopsisService(store)
        np.testing.assert_allclose(
            service.query_many(release_id, QUERY_CODES),
            release.query_many(QUERY_CODES),
            rtol=1e-12,
        )

    def test_answer_batch_decodes_json_boxes(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release)
        service = SynopsisService(store)
        response = service.answer_batch(release_id, BOX_DOCS)
        assert response["answers"] == [
            float(v) for v in release.query_many(QUERY_BOXES)
        ]
        assert response["id"] == release_id
        assert response["method"] == "privtree"
        assert response["count"] == len(QUERY_BOXES)

    def test_answer_batch_decodes_json_codes(self, store, sequence_data):
        release, _ = fit_release("pst", None, sequence_data)
        release_id = store.put(release)
        service = SynopsisService(store)
        assert service.answer_batch(release_id, CODE_DOCS)["answers"] == [
            float(v) for v in release.query_many(QUERY_CODES)
        ]

    def test_typed_batch_bit_identical_to_answer(self, store, uniform_2d):
        """A batch of typed wire documents of several types answers
        bit-identically to in-process `release.answer` on the same
        workload — one dispatch, same floats, scalars as bare floats."""
        from repro.queries import Marginal1D, PointCount, Workload

        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release)
        service = SynopsisService(store)
        workload = Workload.of(
            [
                RangeCount.of(QUERY_BOXES[1]),
                PointCount(point=(0.5, 0.5)),
                Marginal1D.regular(axis=1, n_bins=3, low=0.0, high=1.0),
            ]
        )
        response = service.answer_batch(release_id, [q.to_wire() for q in workload])
        expected = release.answer(workload)
        flat = np.array(
            [
                v
                for entry in response["answers"]
                for v in (entry if isinstance(entry, list) else [entry])
            ]
        )
        assert np.array_equal(flat, expected)
        # A range count is a bare float, equal to the scalar query_many one.
        assert response["answers"][0] == float(release.query_many([QUERY_BOXES[1]])[0])
        assert isinstance(response["answers"][2], list)
        assert response["count"] == 3

    def test_malformed_query_names_index(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release)
        service = SynopsisService(store)
        bad = {"format": "repro.query", "version": 1, "type": "range_count"}
        with pytest.raises(ValueError, match="query 1 is malformed"):
            service.answer_batch(release_id, [BOX_DOCS[0], bad])
        # A raw 1.x code list is refused, naming the typed query to send.
        with pytest.raises(ValueError, match="range_count"):
            service.answer_batch(release_id, [[0, 1]])

    def test_out_of_alphabet_codes_fail_with_index(self, store, sequence_data):
        """An out-of-alphabet code fails validation with the offending
        index for every sequence release (the n-gram engine alone would
        silently answer 0.0, the PST raise an unindexed error)."""
        from repro.queries import QueryValidationError

        release, _ = fit_release("ngram", None, sequence_data)
        release_id = store.put(release)
        service = SynopsisService(store)
        size = release.query_domain.size
        batch = [StringFrequency(codes=(c,)).to_wire() for c in (0, size)]
        with pytest.raises(QueryValidationError, match="workload query 1") as exc:
            service.answer_batch(release_id, batch)
        assert exc.value.index == 1

    def test_concurrent_cold_loads_count_one_miss(self, spatial_store):
        # N threads racing on the same cold id: one load, the rest wait on
        # the per-id guard and resolve as hits.
        import threading

        store, ids = spatial_store
        service = SynopsisService(store, cache_size=4)
        results = []

        def worker():
            results.append(service.query_many(ids[0], QUERY_BOXES))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == 6
        assert all(np.array_equal(r, results[0]) for r in results)
        stats = service.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 5

    def test_warm_compiles_flat_engine_on_load(self, store, uniform_2d):
        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release)
        service = SynopsisService(store)
        loaded = service.release(release_id)
        # The cached tree already carries its compiled flat engine.
        assert loaded.tree._flat is not None


class TestBinaryBatch:
    def test_binary_answers_bit_identical_and_counted(self, store, uniform_2d):
        from repro.queries import (
            Workload,
            decode_binary_answers,
            encode_binary_workload,
        )

        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release)
        service = SynopsisService(store)
        workload = Workload.ranges(QUERY_BOXES)
        payload = service.answer_batch_binary(
            release_id, encode_binary_workload(workload)
        )
        values, offsets = decode_binary_answers(payload)
        assert np.array_equal(values, release.answer(workload))
        assert offsets[-1] == len(values)
        stats = service.stats()
        assert stats["batches"] == 1
        assert stats["queries"] == len(QUERY_BOXES)

    @pytest.mark.parametrize("name", ["ug", "dawa", "hierarchy", "privelet", "ag"])
    def test_grid_releases_answer_packed_batches(self, name, store, uniform_2d):
        """A packed batch runs the stored grid's own engine over its mapped
        counts and answers the fitted release's exact floats."""
        from repro.queries import (
            Workload,
            decode_binary_answers,
            encode_binary_workload,
        )
        from repro.spatial.queries import generate_workload

        release, _ = fit_release(name, uniform_2d, None)
        release_id = store.put(release)
        service = SynopsisService(store)
        loaded = service.release(release_id)
        grid = loaded.synopsis.level1 if name == "ag" else loaded.grid
        base = grid.counts
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)
        boxes = generate_workload(uniform_2d.domain, "medium", 64, rng=2)
        workload = Workload.ranges(QUERY_BOXES + boxes)
        payload = service.answer_batch_binary(
            release_id, encode_binary_workload(workload)
        )
        values, offsets = decode_binary_answers(payload)
        assert values.tobytes() == release.answer(workload).tobytes()
        assert offsets.tolist() == list(range(len(workload) + 1))

    def test_batch_counters_survive_concurrent_writers(self, store, uniform_2d):
        """The satellite contract: counters never lose increments under
        concurrent batches (plain `+=` on ints would)."""
        import threading

        release, _ = fit_release("privtree", uniform_2d, None)
        release_id = store.put(release)
        service = SynopsisService(store)
        n_threads, n_batches = 8, 25

        def worker():
            for _ in range(n_batches):
                service.answer_batch(release_id, BOX_DOCS)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        stats = service.stats()
        assert stats["batches"] == n_threads * n_batches
        assert stats["queries"] == n_threads * n_batches * len(QUERY_BOXES)
