"""The :class:`SynopsisService`: an in-process query front-end.

Sits between a :class:`~repro.serve.store.ReleaseStore` and query traffic:
releases are loaded lazily, their compiled flat engines
(``FlatHistogram`` / ``FlatPST`` / ``FlatNGram``) are warmed at load time,
and an LRU bound keeps the resident set small while hot synopses answer
batches straight from cache.  The HTTP layer and the CLI both dispatch
through this class, and JSON batches of typed ``{"format": "repro.query",
...}`` documents decode through the shared :mod:`repro.queries.wire`
codec, so the wire semantics live in exactly one place.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from ..api.base import Release
from ..api.releases import SpatialRelease
from ..queries.binary import (
    PackedRangeCounts,
    decode_binary_workload,
    encode_binary_answers,
)
from ..queries.wire import decode_query_batch
from ..telemetry import MetricsRegistry
from ..telemetry.metrics import DEFAULT_LATENCY_BOUNDS, DEFAULT_SIZE_BOUNDS
from .store import ReleaseStore, StoreError

__all__ = ["ArtifactLoadError", "SynopsisService"]


class ArtifactLoadError(RuntimeError):
    """A release listed in the manifest failed to load or compile.

    Distinct from :class:`~repro.serve.store.StoreError` (unknown id — the
    client's fault) and from the :class:`ValueError` of a malformed query
    batch: this one means the *server's* stored artifact is corrupt, so
    the HTTP layer reports it as a 500, not a 4xx."""


class SynopsisService:
    """Serve batched queries against stored releases, LRU-caching artifacts.

    Parameters
    ----------
    store:
        The backing :class:`ReleaseStore`.
    cache_size:
        Maximum number of resident releases.  ``0`` disables caching
        (every batch reloads from disk — useful only for testing).
    """

    def __init__(self, store: ReleaseStore, *, cache_size: int = 8) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size!r}")
        self.store = store
        self.cache_size = cache_size
        self._cache: OrderedDict[str, Release] = OrderedDict()
        self._lock = threading.RLock()
        #: Per-id load guards: a cold load/compile must not stall cache
        #: hits on *other* releases, only duplicate loads of the same id.
        self._load_locks: dict[str, threading.Lock] = {}
        #: Stat counters.  Only ever mutated under ``self._lock`` (handler
        #: threads race on them otherwise — a lost `+=` undercounts); the
        #: counter guard below enforces that invariant in debug runs.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.batches = 0
        self.queries = 0
        #: Per-instance telemetry registry mirroring the counters above
        #: plus latency/size histograms.  A forked worker binds it to a
        #: per-pid slab (``metrics.bind_slab``) so the parent — or any
        #: scraper — can aggregate across the worker fleet.
        self.metrics = MetricsRegistry()
        self._m_hits = self.metrics.counter(
            "repro_serve_cache_hits_total", help="Release cache hits"
        )
        self._m_misses = self.metrics.counter(
            "repro_serve_cache_misses_total", help="Release cache misses (loads)"
        )
        self._m_evictions = self.metrics.counter(
            "repro_serve_cache_evictions_total", help="LRU evictions"
        )
        self._m_batches = self.metrics.counter(
            "repro_serve_batches_total", help="Answered query batches"
        )
        self._m_queries = self.metrics.counter(
            "repro_serve_queries_total", help="Answered queries"
        )
        self._m_resident = self.metrics.gauge(
            "repro_serve_cache_resident", help="Releases resident in cache"
        )
        self._m_latency = self.metrics.histogram(
            "repro_serve_request_latency_seconds",
            bounds=DEFAULT_LATENCY_BOUNDS,
            help="Wall time answering one batch (decode to encode)",
        )
        self._m_batch_size = self.metrics.histogram(
            "repro_serve_batch_size",
            bounds=DEFAULT_SIZE_BOUNDS,
            help="Queries per answered batch",
        )

    def _count_batch(self, n_queries: int, seconds: float | None = None) -> None:
        """Record one answered batch (thread-safe)."""
        with self._lock:
            self.batches += 1
            self.queries += n_queries
        self._m_batches.inc()
        self._m_queries.inc(n_queries)
        self._m_batch_size.observe(n_queries)
        if seconds is not None:
            self._m_latency.observe(seconds)

    def _cached(self, release_id: str) -> Release | None:
        """Cache lookup counting a hit and refreshing recency.

        Caller must hold ``self._lock`` (all counter mutations do)."""
        cached = self._cache.get(release_id)
        if cached is not None:
            self._cache.move_to_end(release_id)
            self.hits += 1
            self._m_hits.inc()
        return cached

    def release(self, release_id: str) -> Release:
        """The release for ``release_id``: from cache, else loaded + warmed."""
        with self._lock:
            cached = self._cached(release_id)
            if cached is not None:
                return cached
            guard = self._load_locks.setdefault(release_id, threading.Lock())
        with guard:
            # Re-check: another thread may have finished this load while we
            # waited on the guard; that's a hit, not a second load.
            with self._lock:
                cached = self._cached(release_id)
                if cached is not None:
                    return cached
                self.misses += 1
                self._m_misses.inc()
            try:
                release = self.store.get(release_id)
                release.warm()  # compile the flat engines before first query
            except BaseException as exc:
                # Unknown/broken ids must not grow the guard table without
                # bound (untrusted clients can invent ids freely); threads
                # already waiting on the popped lock still sequence on it.
                with self._lock:
                    self._load_locks.pop(release_id, None)
                if isinstance(exc, StoreError) or not isinstance(exc, Exception):
                    raise
                raise ArtifactLoadError(
                    f"stored release {release_id!r} failed to load: {exc}"
                ) from exc
            with self._lock:
                if self.cache_size > 0:
                    self._cache[release_id] = release
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
                        self.evictions += 1
                        self._m_evictions.inc()
                    self._m_resident.set(len(self._cache))
                return release

    def query_many(self, release_id: str, queries: Sequence[Any]) -> np.ndarray:
        """Batched native-query answers for one stored release."""
        return self.release(release_id).query_many(queries)

    def answer_batch(
        self, release_id: str, raw_queries: Sequence[Any]
    ) -> dict[str, Any]:
        """Decode a JSON query batch, dispatch it, and build the response.

        This is the full wire path: the HTTP handler and any RPC front-end
        send exactly this dict, so in-process answers and served answers
        are the same floats.  The batch of typed wire queries is answered
        by **one** ``release.answer`` dispatch.  Scalar queries answer as
        bare floats; vector queries (marginals, next-symbol rows) answer
        as lists.  One cache access per batch; nothing on this path
        touches the manifest on disk.
        """
        started = time.perf_counter()
        release = self.release(release_id)
        workload = decode_query_batch(
            raw_queries, spatial=isinstance(release, SpatialRelease)
        )
        flat = release.answer(workload)
        answers = workload.group_answers(flat, release.query_domain)
        self._count_batch(len(answers), seconds=time.perf_counter() - started)
        return {
            "id": release_id,
            "method": release.method,
            "count": len(answers),
            "answers": answers,
        }

    def answer_batch_binary(self, release_id: str, payload: bytes) -> bytes:
        """Answer a packed binary batch, returning the binary answer bytes.

        The binary counterpart of :meth:`answer_batch`.  An
        all-range-count payload stays columnar end to end: the decoded
        ``(n, d)`` bound matrices run one ``range_count_arrays`` call on
        the release's engine — no query objects, no dict hops, no float
        reprs.  Mixed batches materialize the typed workload and answer
        through the same ``release.answer`` dispatch as JSON, so binary
        answers are the identical float64 values either way.
        """
        started = time.perf_counter()
        release = self.release(release_id)
        batch = decode_binary_workload(payload)
        if isinstance(batch, PackedRangeCounts):
            # Validation admits only a Box domain, that of a SpatialRelease.
            batch.validate(release.query_domain)
            values = release.range_count_arrays(batch.q_lows, batch.q_highs)
            offsets = np.arange(len(batch) + 1, dtype=np.uint32)
        else:
            values = release.answer(batch)
            sizes = batch.result_sizes(release.query_domain)
            offsets = np.concatenate(
                ([0], np.cumsum(sizes, dtype=np.int64))
            ).astype(np.uint32)
        self._count_batch(
            int(offsets.shape[0]) - 1, seconds=time.perf_counter() - started
        )
        return encode_binary_answers(values, offsets)

    def cached_ids(self) -> list[str]:
        """Resident release ids, least- to most-recently used."""
        with self._lock:
            return list(self._cache)

    def stats(self) -> dict[str, int]:
        """Service counters, read atomically (the ``/statz`` payload)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "resident": len(self._cache),
                "batches": self.batches,
                "queries": self.queries,
            }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"<SynopsisService store={str(self.store.root)!r} "
            f"resident={s['resident']}/{self.cache_size} "
            f"hits={s['hits']} misses={s['misses']}>"
        )
