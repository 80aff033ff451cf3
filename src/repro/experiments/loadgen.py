"""A closed-loop HTTP load generator for the synopsis service.

Deprecated since 5.0.0, and removed in 6.0.0: ``repro bench`` no longer
calls it, and perfbench's serve-bulk workload (``python3 perfbench/run.py
--workload serve-bulk``) measures the served binary path end to end, with
every failed request counted.

Measures what a consumer of ``repro serve`` actually sees: ``clients``
concurrent keep-alive connections, each POSTing the same query batch
back-to-back against one release and timing every request.  Closed-loop
(a client sends its next batch the moment the previous answer lands), so
queries/s is the service's sustained throughput at that concurrency, and
the per-request latencies give honest p50/p99 under load.

Stdlib + numpy only — ``http.client`` connections in plain threads, one
connection per client, reused across every request (HTTP/1.1 keep-alive).
The payload is prepared once by the caller (JSON or the packed binary
wire form of :mod:`repro.queries.binary`) so the generator measures the
server, not client-side encoding.

Example::

    from repro.experiments.loadgen import run_load

    payload = encode_binary_workload(workload)
    result = run_load(
        "127.0.0.1", 8000, "privtree-abc", payload,
        content_type=BINARY_WIRE_CONTENT_TYPE,
        queries_per_batch=len(workload), clients=4, batches_per_client=50,
    )
    print(f"{result.queries_per_s:,.0f} q/s  p99={result.p99_ms:.2f} ms")
"""

from __future__ import annotations

import http.client
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["LoadError", "LoadResult", "run_load"]


class LoadError(RuntimeError):
    """A load-generation request failed (non-200 status or socket error)."""


@dataclass(frozen=True)
class LoadResult:
    """Aggregate of one load run (latencies in milliseconds)."""

    clients: int
    batches: int
    queries: int
    elapsed_s: float
    queries_per_s: float
    batches_per_s: float
    p50_ms: float
    p99_ms: float
    mean_ms: float

    def to_json(self) -> dict[str, float | int]:
        return {
            "clients": self.clients,
            "batches": self.batches,
            "queries": self.queries,
            "elapsed_s": self.elapsed_s,
            "queries_per_s": self.queries_per_s,
            "batches_per_s": self.batches_per_s,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
        }


def _client_loop(
    host: str,
    port: int,
    path: str,
    payload: bytes,
    content_type: str,
    batches: int,
    timeout_s: float,
    barrier: threading.Barrier,
    latencies_out: list[np.ndarray],
    errors_out: list[BaseException],
    slot: int,
) -> None:
    """One client: a single kept-alive connection POSTing ``batches`` times."""
    latencies = np.empty(batches, dtype=np.float64)
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        # Establish the connection (and let the server spin up its handler
        # thread) before the barrier, so every timed request rides a warm
        # keep-alive socket.
        conn.connect()
        barrier.wait(timeout=timeout_s)
        headers = {"Content-Type": content_type}
        for i in range(batches):
            start = time.perf_counter()
            conn.request("POST", path, body=payload, headers=headers)
            response = conn.getresponse()
            body = response.read()  # must drain to reuse the connection
            latencies[i] = (time.perf_counter() - start) * 1e3
            if response.status != 200:
                raise LoadError(
                    f"POST {path} -> {response.status}: {body[:200]!r}"
                )
        latencies_out[slot] = latencies
    except BaseException as exc:  # surfaced to the caller, never swallowed
        errors_out.append(exc)
        barrier.abort()  # release clients still waiting on the start line
    finally:
        conn.close()


def run_load(
    host: str,
    port: int,
    release_id: str,
    payload: bytes,
    *,
    content_type: str,
    queries_per_batch: int,
    clients: int = 4,
    batches_per_client: int = 50,
    timeout_s: float = 30.0,
) -> LoadResult:
    """Drive the query endpoint with concurrent keep-alive clients.

    The elapsed window opens when all clients have connected (a barrier)
    and closes when the last batch completes, so ``queries_per_s`` never
    counts connection setup.  Raises :class:`LoadError` if any request
    fails — a throughput number measured over errors would be fiction.

    .. deprecated:: 5.0.0
        Removed in 6.0.0; use perfbench's serve-bulk workload.
    """
    warnings.warn(
        "repro.experiments.run_load is deprecated and will be removed in "
        "6.0.0; perfbench's serve-bulk workload (python3 perfbench/run.py "
        "--workload serve-bulk) measures served throughput instead",
        DeprecationWarning,
        stacklevel=2,
    )
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients!r}")
    if batches_per_client < 1:
        raise ValueError(
            f"batches_per_client must be >= 1, got {batches_per_client!r}"
        )
    path = f"/releases/{release_id}/query"
    # Slot +1 on the barrier: the coordinator joins it to start the clock
    # at the same instant the clients start sending.
    barrier = threading.Barrier(clients + 1)
    latencies_out: list[np.ndarray] = [np.empty(0)] * clients
    errors_out: list[BaseException] = []
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(
                host,
                port,
                path,
                payload,
                content_type,
                batches_per_client,
                timeout_s,
                barrier,
                latencies_out,
                errors_out,
                slot,
            ),
            daemon=True,
        )
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait(timeout=timeout_s)
    except threading.BrokenBarrierError:
        pass  # a client failed during connect; its error is in errors_out
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors_out:
        raise LoadError(f"{len(errors_out)} client(s) failed") from errors_out[0]
    latencies = np.concatenate(latencies_out)
    batches = clients * batches_per_client
    queries = batches * queries_per_batch
    return LoadResult(
        clients=clients,
        batches=batches,
        queries=queries,
        elapsed_s=elapsed,
        queries_per_s=queries / elapsed,
        batches_per_s=batches / elapsed,
        p50_ms=float(np.percentile(latencies, 50)),
        p99_ms=float(np.percentile(latencies, 99)),
        mean_ms=float(latencies.mean()),
    )
