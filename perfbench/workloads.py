"""The four workloads: set-up, timed ops, output checks and the traced pass.

Every workload drives the program through public functions, the
``repro serve`` CLI and its HTTP endpoints only.  A workload object runs
in this order:

* ``setup()``: inputs from the seed, any fit, publish or server start,
  and one untimed warm-up op;
* ``timed(seconds)``: the untraced window;
* ``peak_rss_mb()``: peak RSS of the process doing the work;
* ``traced(untraced_p50_s)``: the traced pass, returning the span
  records and the per-layer values that spans cannot give;
* ``check()``: end-of-run reference checks;
* ``close()``: stops every process and thread the workload started.

Why each workload exists, and what each ROADMAP item should do to it, is
in ``NOTES.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import re
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from client import KeepAliveClient, Sample, ServeProcess, run_closed_loop, vm_hwm_mb
from harness import Failures, descendants, named_totals, span_total_s

from repro import from_spec, telemetry
from repro.datasets.spatial import gowallalike
from repro.experiments.perf import build_mixed_workload, reference_privtree_histogram
from repro.federated import (
    CollectorEndpoint,
    CollectorServer,
    FederatedPrivTree,
    ShardCollector,
    connect_collectors,
    shard_dataset,
)
from repro.queries import (
    BINARY_WIRE_CONTENT_TYPE,
    Marginal1D,
    PointCount,
    RangeCount,
    Workload,
    decode_binary_answers,
    decode_binary_workload,
    decode_query_batch,
    encode_binary_answers,
    encode_binary_workload,
)
from repro.queries.answer import compile_spatial_boxes
from repro.serve import ReleaseStore, write_artifact
from repro.spatial.flat import FlatHistogram
from repro.spatial.queries import generate_workload
from repro.spatial.serialize import tree_to_dict

EPSILON = 1.0
#: Points behind the release of fit-publish and of the serve workloads.
N_POINTS = 1_000_000
#: Points of the federated fit, split round-robin over the collectors.
N_FEDERATED_POINTS = 200_000
#: Collectors, client threads and connections are capped by the 2 CPUs.
N_COLLECTORS = 2
CLIENTS = 2
#: Range counts per serve-bulk batch: traversal-bound, yet small enough
#: that a 20 s window holds over 100 batches, so p90 has 10 beyond it.
BULK_BATCH = 2_000
MIXED_BATCH = 32
PROBE_BATCH = 12
#: Traced ops (or in-process replays) per traced pass; fit-publish traces one.
TRACED_OPS = {"federated-tcp": 3, "serve-bulk": 5, "serve-mixed": 30}
#: Requests of the single-client pass that measures the HTTP layer.
SINGLE_CLIENT_REQUESTS = {"serve-bulk": 10, "serve-mixed": 40}
#: Accept-loop poll interval of the collector servers.  socketserver's
#: 0.5 s default would make each op's untimed teardown wait that long.
COLLECTOR_POLL_S = 0.05

#: Registry counters that stay 0 in a clean federated run.
RETRY_COUNTERS = (
    "repro_federated_retries_total",
    "repro_federated_timeouts_total",
    "repro_federated_crashes_total",
    "repro_federated_reconnects_total",
    "repro_federated_corrupt_frames_total",
)

#: Per-layer values a workload supplies itself (the rest come from the
#: spans of its traced ops).  A workload that bypasses a layer leaves 0.
EXTRA_KEYS = (
    "spatial.tree_nodes",
    "spatial.boxes_per_batch",
    "spatial.traversal_range_ms",
    "spatial.traversal_point_ms",
    "spatial.traversal_marginal_ms",
    "serve.put_json_ms",
    "serve.artifact_write_ms",
    "serve.bytes_written",
    "serve.cold_load_ms",
    "serve.answer_ms",
    "serve.http_ms",
    "serve.cache_hit_ratio",
    "federated.collector_busy_ms",
    "federated.transport_ms",
    "federated.retries",
    "telemetry.overhead_ratio",
)

MS = 1e3
LOCALHOST = "127.0.0.1"


def sub_seeds(seed: int) -> dict[str, int]:
    """Independent seeds for the data, the fit noise and the query batches."""
    data, fit, queries = np.random.SeedSequence(seed).generate_state(3)
    return {"data": int(data), "fit": int(fit), "queries": int(queries)}


def flat_digest(flat: FlatHistogram) -> str:
    """SHA-256 over a compiled release's arrays: equal iff the releases are."""
    digest = hashlib.sha256()
    for array in (flat.lows, flat.highs, flat.counts, flat.parents,
                  flat.child_offsets, flat.child_index):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def json_batch(workload: Workload) -> bytes:
    return json.dumps({"queries": [query.to_wire() for query in workload]}).encode("utf-8")


def registry_total(names: tuple[str, ...]) -> float:
    snapshot = telemetry.get_registry().snapshot()
    return sum(float(snapshot[name]["value"]) for name in names if name in snapshot)


_PROM_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)\s+(\S+)$")


def prometheus_values(text: str) -> dict[str, float]:
    """The unlabelled samples of a Prometheus text exposition."""
    values = {}
    for line in text.splitlines():
        match = _PROM_SAMPLE.match(line)
        if match:
            values[match.group(1)] = float(match.group(2))
    return values


@dataclass
class Window:
    """What the untraced window measured."""

    times: list[float]  # wall seconds of each successful op
    queries: int  # queries those ops answered
    seconds: float  # the span ``queries_per_s`` divides by


class _Served:
    """A release store, a ``repro serve`` child, and scrapes of its counters."""

    def __init__(self, src: Path, workdir: Path) -> None:
        self.src = src
        self.workdir = workdir
        self.store = ReleaseStore(workdir / "store")
        self.server: ServeProcess | None = None

    def start(self) -> None:
        self.server = ServeProcess(self.src, self.store.root, self.workdir)

    def client(self) -> KeepAliveClient:
        return KeepAliveClient(LOCALHOST, self.server.port)

    def scrape(self) -> dict[str, float]:
        metrics = prometheus_values(self.server.get_text("/metrics"))
        statz = self.server.get_json("/statz")
        return {
            "latency_sum": metrics.get("repro_serve_request_latency_seconds_sum", 0.0),
            "latency_count": metrics.get("repro_serve_request_latency_seconds_count", 0.0),
            "hits": float(statz["hits"]),
            "misses": float(statz["misses"]),
        }

    @staticmethod
    def deltas(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
        """Server-side ms per batch and cache hit share between two scrapes."""
        count = after["latency_count"] - before["latency_count"]
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        return {
            "serve.answer_ms": (after["latency_sum"] - before["latency_sum"]) / count * MS
            if count else 0.0,
            "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


# ----------------------------------------------------------------------
# In-process replays of one served batch, step by step
# ----------------------------------------------------------------------


def replay_json(release, release_id: str, body: bytes) -> bytes:
    """What the service does with a JSON batch; returns the response body."""
    domain = release.query_domain
    with telemetry.span("queries.decode", n_bytes=len(body)):
        workload = decode_query_batch(json.loads(body)["queries"], spatial=True)
    with telemetry.span("queries.validate", n_queries=len(workload)):
        workload.validate(domain)
    with telemetry.span("queries.compile", n_queries=len(workload)):
        boxes = compile_spatial_boxes(workload, domain)
    with telemetry.span("spatial.traversal", n_boxes=len(boxes)):
        values = np.asarray(release.range_count_many(boxes), dtype=np.float64)
    with telemetry.span("queries.encode", n_values=int(values.shape[0])):
        answers = workload.group_answers(values, domain)
        response = {"id": release_id, "method": release.method,
                    "count": len(answers), "answers": answers}
        return json.dumps(response).encode("utf-8")


def replay_binary(release, payload: bytes) -> bytes:
    """What the service does with a packed range-count batch."""
    with telemetry.span("queries.decode", n_bytes=len(payload)):
        batch = decode_binary_workload(payload)
    with telemetry.span("queries.validate", n_queries=len(batch)):
        batch.validate(release.query_domain)
    with telemetry.span("spatial.traversal", n_boxes=len(batch)):
        values = np.asarray(
            release.range_count_arrays(batch.q_lows, batch.q_highs), dtype=np.float64
        )
    with telemetry.span("queries.encode", n_values=int(values.shape[0])):
        return encode_binary_answers(values, np.arange(len(batch) + 1, dtype=np.uint32))


def traversal_by_type(release, workload: Workload) -> None:
    """One traversal per query type present, each under its own span."""
    domain = release.query_domain
    for label, cls in (("range", RangeCount), ("point", PointCount), ("marginal", Marginal1D)):
        chosen = [query for query in workload if isinstance(query, cls)]
        if chosen:
            boxes = compile_spatial_boxes(Workload.of(chosen), domain)
            with telemetry.span(f"spatial.traversal_{label}", n_boxes=len(boxes)):
                release.range_count_many(boxes)


def traversal_extras(totals: dict[str, float], release, workload: Workload) -> dict[str, float]:
    """Per-type traversal ms from the component spans, plus batch shapes."""
    return {
        f"spatial.traversal_{label}_ms": totals.get(f"spatial.traversal_{label}", 0.0) * MS
        for label in ("range", "point", "marginal")
    } | {
        "spatial.tree_nodes": float(release.size),
        "spatial.boxes_per_batch": float(
            len(compile_spatial_boxes(workload, release.query_domain))
        ),
    }


def run_ops(op: Callable[[], Any], count: int) -> list[float]:
    """Wall seconds of ``count`` calls, each under one ``bench.op`` root span."""
    out = []
    for i in range(count):
        started = time.perf_counter()
        with telemetry.span("bench.op", op=i):
            op()
        out.append(time.perf_counter() - started)
    return out


@contextlib.contextmanager
def tracing() -> Iterator[telemetry.Tracer]:
    """Tracing on inside the block, off after it."""
    tracer = telemetry.enable()
    try:
        yield tracer
    finally:
        telemetry.disable()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Bench:
    """State shared by every workload of one run."""

    name = ""
    #: Percentile reported as ``op_tail_ms``, fixed per workload so the
    #: metric keeps one meaning from run to run.
    tail_pct = 90

    def __init__(self, src: Path, workdir: Path, seed: int, failures: Failures) -> None:
        self.src = src
        self.workdir = workdir
        self.seeds = sub_seeds(seed)
        self.failures = failures
        self.meta: dict[str, Any] = {}
        self.phases: dict[str, float] = {}
        self._peak_mb = 0.0
        self._retries_before = registry_total(RETRY_COUNTERS)
        self._clock = time.perf_counter()

    def phase(self, name: str) -> None:
        """Record the set-up phase that just ended."""
        now = time.perf_counter()
        self.phases[name] = now - self._clock
        self._clock = now

    def peak_rss_mb(self) -> float:
        return self._peak_mb

    def extras(self) -> dict[str, float]:
        values = dict.fromkeys(EXTRA_KEYS, 0.0)
        values["federated.retries"] = registry_total(RETRY_COUNTERS) - self._retries_before
        return values

    def check(self) -> None:
        pass

    def close(self) -> None:
        pass


class FitPublish(Bench):
    """fit -> ``ReleaseStore.put`` -> cold serve -> HTTP answer, one op at a time."""

    name = "fit-publish"
    #: Four or five ops per run leave no tail; the median is reported.
    tail_pct = 50

    def setup(self) -> None:
        self.data = gowallalike(N_POINTS, rng=self.seeds["data"])
        small = generate_workload(self.data.domain, "small", PROBE_BATCH, rng=self.seeds["queries"])
        self.probe = build_mixed_workload(self.data.domain, small, PROBE_BATCH, self.seeds["queries"])
        self.body = json_batch(self.probe)
        self.phase("data_s")
        self.served = _Served(self.src, self.workdir)
        self.served.start()
        self.client = self.served.client()
        self.phase("server_start_s")
        release, sample, _ = self._op("warmup")
        self.digest = flat_digest(release.flat())
        self._untimed_check("warm-up op", release, sample)
        self._discard("warmup")
        self.phase("warmup_s")
        self.meta.update(points=N_POINTS, tree_nodes=release.size,
                         tree_height=release.height, batch_queries=PROBE_BATCH)

    def _op(self, release_id: str):
        started = time.perf_counter()
        release = from_spec("privtree", epsilon=EPSILON).fit(self.data, rng=self.seeds["fit"])
        self.served.store.put(release, release_id=release_id)
        sample = self.client.post(f"/releases/{release_id}/query", self.body, "application/json")
        return release, sample, time.perf_counter() - started

    def _discard(self, release_id: str) -> None:
        """Delete an op's two artifact files once it has been checked.

        Every op writes 16 MB.  Left in place, the files slow each later
        fit on a 2-vCPU VM (2.2 s for the first, 4.2 s by the sixth), so
        ops would not do identical work.
        """
        for suffix in (".json", ".bin"):
            (self.served.store.root / "releases" / f"{release_id}{suffix}").unlink()

    def _error(self, release, sample: Sample) -> str | None:
        """Why an op's output is wrong, or ``None``."""
        if sample.error is not None:
            return sample.error
        expected = self.probe.group_answers(release.answer(self.probe), release.query_domain)
        if json.dumps(json.loads(sample.body)["answers"]) != json.dumps(expected):
            return "wrong answer"
        if flat_digest(release.flat()) != self.digest:
            return "release differs across ops"
        return None

    def _untimed_check(self, where: str, release, sample: Sample) -> None:
        error = self._error(release, sample)
        if error is not None:
            self.failures.fail_untimed(f"{where}: {error}")

    def timed(self, seconds: float) -> Window:
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while self.failures.attempted == 0 or time.perf_counter() < deadline:
            gc.collect()  # every op starts from the same collector state
            release_id = f"fp-{self.failures.attempted}"
            release, sample, elapsed = self._op(release_id)
            error = self._error(release, sample)
            self.failures.record(error)
            self._discard(release_id)
            del release  # the next op starts with the same live memory
            if error is None:
                times.append(elapsed)
        self._peak_mb = vm_hwm_mb()
        return Window(times, PROBE_BATCH * len(times), sum(times))

    def traced(self, untraced_p50_s: float):
        before = self.served.scrape()
        with tracing() as tracer:
            started = time.perf_counter()
            with telemetry.span("bench.op", op=0):
                with telemetry.span("api.fit", points=N_POINTS):
                    release = from_spec("privtree", epsilon=EPSILON).fit(
                        self.data, rng=self.seeds["fit"]
                    )
                with telemetry.span("spatial.flat_compile", nodes=release.size):
                    release.warm()
                with telemetry.span("serve.put", nodes=release.size):
                    self.served.store.put(release, release_id="fp-traced")
                with telemetry.span("serve.first_answer", n_queries=PROBE_BATCH):
                    sample = self.client.post(
                        "/releases/fp-traced/query", self.body, "application/json"
                    )
            traced_s = time.perf_counter() - started
            after = self.served.scrape()
            with telemetry.span("bench.components"):
                with telemetry.span("serve.put_json", nodes=release.size):
                    json.dumps(release.to_json())
                with telemetry.span("serve.artifact_write", nodes=release.size):
                    write_artifact(release, self.workdir / "artifact-probe.bin")
                (self.workdir / "artifact-probe.bin").unlink()
                with telemetry.span("serve.cold_load", nodes=release.size):
                    loaded = self.served.store.get("fp-traced")
                    loaded.warm()
                # The probe batch as the server answers it, in-process.
                replay_json(loaded, "fp-traced", self.body)
                traversal_by_type(loaded, self.probe)
        self._untimed_check("traced op", release, sample)
        records = tracer.records
        totals = named_totals([r.to_wire() for r in records], "bench.components")
        served = _Served.deltas(before, after)
        releases = self.served.store.root / "releases"
        values = self.extras()
        values.update(traversal_extras(totals, release, self.probe))
        values.update(served)
        values.update({
            "serve.http_ms": sample.seconds * MS - served["serve.answer_ms"],
            "serve.put_json_ms": totals["serve.put_json"] * MS,
            "serve.artifact_write_ms": totals["serve.artifact_write"] * MS,
            "serve.cold_load_ms": totals["serve.cold_load"] * MS,
            "serve.bytes_written": float(
                (releases / "fp-traced.json").stat().st_size
                + (releases / "fp-traced.bin").stat().st_size
            ),
            "telemetry.overhead_ratio": traced_s / untraced_p50_s,
        })
        self._discard("fp-traced")
        # The probe replay's steps stand in for the served probe's layers.
        for step in ("decode", "validate", "compile", "encode"):
            values[f"queries.{step}_ms"] = totals.get(f"queries.{step}", 0.0) * MS
        values["spatial.traversal_ms"] = totals.get("spatial.traversal", 0.0) * MS
        return records, values

    def check(self) -> None:
        reference = reference_privtree_histogram(self.data, EPSILON, rng=self.seeds["fit"])
        if flat_digest(FlatHistogram.from_tree(reference)) != self.digest:
            self.failures.fail_untimed("release differs from reference_privtree_histogram")
            for index in range(self.failures.attempted):
                self.failures.fail(index, "release differs from the reference")

    def close(self) -> None:
        if hasattr(self, "client"):
            self.client.close()
        if hasattr(self, "served"):
            self.served.close()


class TimedEndpoint(CollectorEndpoint):
    """A collector endpoint that records how long each request kept it busy."""

    def __init__(self, collector: ShardCollector) -> None:
        super().__init__(collector)
        #: (frame kind, node ids in the frame, busy seconds), in arrival order.
        self.requests: list[tuple[str, int, float]] = []

    def handle(self, message: dict) -> dict:
        started = time.perf_counter()
        try:
            return super().handle(message)
        finally:
            self.requests.append(
                (str(message.get("kind")), len(message.get("node_ids") or ()),
                 time.perf_counter() - started)
            )


class FederatedTcp(Bench):
    """connect -> fit_histogram -> finish against 2 fresh TCP collectors."""

    name = "federated-tcp"
    #: About ten ops per run leave no tail; the median is reported.
    tail_pct = 50

    def setup(self) -> None:
        self.data = gowallalike(N_FEDERATED_POINTS, rng=self.seeds["data"])
        self.shards = shard_dataset(self.data, N_COLLECTORS)
        self.phase("data_s")
        tree, _, endpoints = self._op("warmup")
        self.reference = tree_to_dict(tree)
        self.meta.update(
            points=N_FEDERATED_POINTS, collectors=N_COLLECTORS, tree_nodes=tree.size,
            tree_height=tree.height, nodes_requested=self._nodes_requested(endpoints),
        )
        self.phase("warmup_s")

    @staticmethod
    def _nodes_requested(endpoints: list[TimedEndpoint]) -> int:
        """Per-node count queries the ring answered (one per node, not per shard)."""
        return sum(n for kind, n, _ in endpoints[0].requests if kind == "counts_request")

    def _op(self, session: str):
        """One op; the collector servers start before the clock and stop after it."""
        servers = []
        try:
            for shard_id, shard in enumerate(self.shards):
                endpoint = TimedEndpoint(ShardCollector(shard_id, N_COLLECTORS, shard))
                server = CollectorServer((LOCALHOST, 0), endpoint)
                thread = threading.Thread(
                    target=server.serve_forever, kwargs={"poll_interval": COLLECTOR_POLL_S}
                )
                thread.start()
                servers.append((server, thread))
            addresses = [(LOCALHOST, server.port) for server, _ in servers]
            started = time.perf_counter()
            with telemetry.span("federated.connect", collectors=N_COLLECTORS):
                clients = connect_collectors(addresses, session=session)
            try:
                with telemetry.span("federated.fit", points=N_FEDERATED_POINTS):
                    tree = FederatedPrivTree(clients).fit_histogram(EPSILON, rng=self.seeds["fit"])
            finally:
                with telemetry.span("federated.finish", collectors=N_COLLECTORS):
                    for client in clients:
                        client.finish()
            elapsed = time.perf_counter() - started
        finally:
            for server, thread in servers:
                server.shutdown()
                server.server_close()
                thread.join()
        return tree, elapsed, [server.endpoint for server, _ in servers]

    def timed(self, seconds: float) -> Window:
        times: list[float] = []
        queries = 0
        deadline = time.perf_counter() + seconds
        while self.failures.attempted == 0 or time.perf_counter() < deadline:
            gc.collect()  # every op starts from the same collector state
            try:
                tree, elapsed, endpoints = self._op(f"bench-{self.failures.attempted}")
            except Exception as exc:  # one failed op must not end the window
                self.failures.record(f"error: {type(exc).__name__}")
                continue
            error = None if tree_to_dict(tree) == self.reference else "release differs across ops"
            del tree  # the next op starts with the same live memory
            self.failures.record(error)
            if error is not None:
                continue
            times.append(elapsed)
            queries += self._nodes_requested(endpoints)
        self._peak_mb = vm_hwm_mb()
        return Window(times, queries, sum(times))

    def traced(self, untraced_p50_s: float):
        busy, traced_s = [], []
        with tracing() as tracer:
            for i in range(TRACED_OPS[self.name]):
                started = time.perf_counter()
                with telemetry.span("bench.op", op=i):
                    tree, _, endpoints = self._op(f"traced-{i}")
                traced_s.append(time.perf_counter() - started)
                busy.append(sum(
                    seconds for endpoint in endpoints
                    for kind, _, seconds in endpoint.requests
                    if kind in ("counts_request", "splits_request")
                ))
                if tree_to_dict(tree) != self.reference:
                    self.failures.fail_untimed("traced op: release differs across ops")
        records = tracer.records
        wire = [r.to_wire() for r in records]
        # Transport is what the coordinator waited on the collectors
        # beyond the time their endpoints were busy, paired op by op.
        transport = [
            span_total_s(descendants(wire, root["span_id"]), "federated.collector") - busy_s
            for root, busy_s in zip((r for r in wire if r["name"] == "bench.op"), busy)
        ]
        values = self.extras()
        values.update({
            "spatial.tree_nodes": float(tree.size),
            "federated.collector_busy_ms": statistics.median(busy) * MS,
            "federated.transport_ms": statistics.median(transport) * MS,
            "telemetry.overhead_ratio": statistics.median(traced_s) / untraced_p50_s,
        })
        return records, values

    def check(self) -> None:
        central = from_spec("privtree", epsilon=EPSILON).fit(self.data, rng=self.seeds["fit"])
        if tree_to_dict(central.tree) != self.reference:
            self.failures.fail_untimed("federated release differs from the centralized fit")
            for index in range(self.failures.attempted):
                self.failures.fail(index, "release differs from the centralized fit")


class _ServeWorkload(Bench):
    """One ``repro serve --workers 1`` and two closed-loop keep-alive clients."""

    release_id = "bench"
    content_type = ""

    def setup(self) -> None:
        data = gowallalike(N_POINTS, rng=self.seeds["data"])
        self.domain = data.domain
        self.phase("data_s")
        self.release = from_spec("privtree", epsilon=EPSILON).fit(data, rng=self.seeds["fit"])
        self.phase("fit_s")
        self.served = _Served(self.src, self.workdir)
        self.served.store.put(self.release, release_id=self.release_id)
        self.phase("put_s")
        self.workload, self.body = self.make_batch()
        self.path = f"/releases/{self.release_id}/query"
        self.phase("batch_s")
        self.served.start()
        self.phase("server_start_s")
        client = self.served.client()
        try:
            warm = client.post(self.path, self.body, self.content_type)
        finally:
            client.close()
        if warm.error is not None:
            self.failures.fail_untimed(f"warm-up op: {warm.error}")
        self.expected = warm.body
        self.phase("warmup_s")
        self.meta.update(
            points=N_POINTS, tree_nodes=self.release.size, tree_height=self.release.height,
            batch_queries=len(self.workload),
            batch_boxes=len(compile_spatial_boxes(self.workload, self.domain)),
            clients=CLIENTS,
        )

    def _request(self, client: KeepAliveClient) -> Sample:
        sample = client.post(self.path, self.body, self.content_type)
        if sample.error is None and sample.body != self.expected:
            return Sample(sample.seconds, "wrong answer")
        return Sample(sample.seconds, sample.error)

    def timed(self, seconds: float) -> Window:
        result = run_closed_loop(
            LOCALHOST, self.served.server.port, self._request, clients=CLIENTS, seconds=seconds
        )
        self._peak_mb = self.served.server.peak_rss_mb()
        times = []
        for sample in result.samples:
            self.failures.record(sample.error)
            if sample.error is None:
                times.append(sample.seconds)
        return Window(times, len(self.workload) * len(times), result.window_s)

    def traced(self, untraced_p50_s: float):
        loaded = self.served.store.get(self.release_id)
        loaded.warm()
        count = TRACED_OPS[self.name]
        replay = lambda: self.replay(loaded)  # noqa: E731
        untraced = run_ops(replay, count)
        with tracing() as tracer:
            traced = run_ops(replay, count)
            with telemetry.span("bench.components"):
                traversal_by_type(loaded, self.workload)
        if self.replay(loaded) != self.expected:
            self.failures.fail_untimed("in-process replay differs from the served answer")
        # The HTTP layer: one client, so latency is not shared with another.
        before = self.served.scrape()
        client = self.served.client()
        try:
            samples = [self._request(client) for _ in range(SINGLE_CLIENT_REQUESTS[self.name])]
        finally:
            client.close()
        after = self.served.scrape()
        for sample in samples:
            if sample.error is not None:
                self.failures.fail_untimed(f"single-client pass: {sample.error}")
        served = _Served.deltas(before, after)
        latency_ms = statistics.median(s.seconds for s in samples) * MS
        records = tracer.records
        totals = named_totals([r.to_wire() for r in records], "bench.components")
        values = self.extras()
        values.update(traversal_extras(totals, loaded, self.workload))
        values.update(served)
        values.update({
            "serve.http_ms": latency_ms - served["serve.answer_ms"],
            "telemetry.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        })
        return records, values

    def check(self) -> None:
        if not self.matches_in_process(self.expected):
            self.failures.fail_untimed("served answers differ from Release.answer")
            for index in range(self.failures.attempted):
                self.failures.fail(index, "served answers differ from Release.answer")

    def close(self) -> None:
        if hasattr(self, "served"):
            self.served.close()


class ServeBulk(_ServeWorkload):
    """Packed binary batches of medium range counts: traversal-bound."""

    name = "serve-bulk"
    content_type = BINARY_WIRE_CONTENT_TYPE

    def make_batch(self):
        boxes = generate_workload(self.domain, "medium", BULK_BATCH, rng=self.seeds["queries"])
        workload = Workload.of([RangeCount.of(box) for box in boxes])
        return workload, encode_binary_workload(workload)

    def replay(self, release) -> bytes:
        return replay_binary(release, self.body)

    def matches_in_process(self, body: bytes) -> bool:
        values, _ = decode_binary_answers(body)
        expected = np.asarray(self.release.answer(self.workload), dtype=np.float64)
        return values.tobytes() == expected.tobytes()


class ServeMixed(_ServeWorkload):
    """Small JSON batches of range, point and 4-bin marginal queries."""

    name = "serve-mixed"
    content_type = "application/json"

    def make_batch(self):
        small = generate_workload(self.domain, "small", MIXED_BATCH, rng=self.seeds["queries"])
        workload = build_mixed_workload(self.domain, small, MIXED_BATCH, self.seeds["queries"])
        return workload, json_batch(workload)

    def replay(self, release) -> bytes:
        return replay_json(release, self.release_id, self.body)

    def matches_in_process(self, body: bytes) -> bool:
        answers = self.workload.group_answers(self.release.answer(self.workload), self.domain)
        return json.dumps(json.loads(body)["answers"]) == json.dumps(answers)


WORKLOADS = {cls.name: cls for cls in (FitPublish, FederatedTcp, ServeBulk, ServeMixed)}
