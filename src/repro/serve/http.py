"""A stdlib JSON/HTTP front-end for the synopsis service.

No framework, no dependencies: a :class:`ThreadingHTTPServer` whose
handler translates HTTP to :class:`~repro.serve.service.SynopsisService`
calls.  Endpoints::

    GET  /healthz                  liveness + store size
    GET  /statz                    service counters (hits, batches, queries)
    GET  /statz?aggregate=1        counters summed across worker processes
    GET  /metrics                  Prometheus text exposition (all workers)
    GET  /releases                 manifest entries of every stored release
    GET  /releases/{id}            one manifest entry
    POST /releases/{id}/query      {"queries": [...]} -> {"answers": [...]}

Counter scope: the service behind each worker process keeps its *own*
counters, so a bare ``GET /statz`` reports whichever worker the kernel
handed the connection to (the payload carries that worker's ``pid`` and
``"scope": "process"``).  Under ``--workers N`` every worker mirrors its
registry into a mmap'd per-pid slab; ``/statz?aggregate=1`` and
``/metrics`` read every slab and answer fleet-wide totals no matter
which worker serves the scrape.

A JSON batch is a list of typed query documents (``{"format":
"repro.query", "version": 1, "type": "range_count", ...}`` — see
:mod:`repro.queries`).  Scalar queries answer as bare floats, vector
queries (marginals, next-symbol distributions) as lists.

The query endpoint also negotiates the packed binary wire form by
Content-Type: a ``application/x-repro-workload`` body (see
:mod:`repro.queries.binary`) answers as ``application/x-repro-answers``
raw float64 bytes — the high-throughput path, since neither side touches
a float repr.  Either way the answers are the exact floats
``release.answer`` returns in-process (JSON round-trips doubles
losslessly via ``repr``; the binary form carries the raw doubles), so a
consumer can verify a served batch bit-for-bit against a local reload of
the artifact.  A batch with one invalid query fails as a 400 JSON body
naming the offending index::

    {"error": "query 3 is malformed (...)", "query_index": 3}
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import tempfile
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..queries.binary import BINARY_ANSWERS_CONTENT_TYPE, BINARY_WIRE_CONTENT_TYPE
from ..telemetry import aggregate_slabs, render_prometheus
from .service import ArtifactLoadError, SynopsisService
from .store import ReleaseStore, StoreError

__all__ = ["SynopsisHTTPServer", "SynopsisRequestHandler", "serve"]

#: Refuse query bodies larger than this many bytes (a 1M-box batch is ~100MB;
#: this bound keeps one bad client from exhausting server memory).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Socket-level timeout per request, seconds.  A client that connects and
#: then stalls (half-open socket, interrupted upload) would otherwise pin
#: its handler thread forever; on expiry the stdlib handler aborts just
#: that connection.
REQUEST_TIMEOUT_S = 30.0


class SynopsisRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the server's service/store."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S
    # TCP_NODELAY on every accepted connection.  A response goes out in
    # two writes (headers, then body); with Nagle's algorithm on, the body
    # would wait for the client's delayed ACK of the headers.
    disable_nagle_algorithm = True

    # -- helpers -------------------------------------------------------

    def _send_bytes(self, status: int, content_type: str, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status: int, body: dict[str, Any]) -> None:
        self._send_bytes(status, "application/json", json.dumps(body).encode("utf-8"))

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _route(self) -> tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    def _query_params(self) -> dict[str, str]:
        parts = self.path.split("?", 1)
        if len(parts) < 2:
            return {}
        return {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parts[1]).items()
        }

    @property
    def _service(self) -> SynopsisService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if not getattr(self.server, "quiet", False):
            super().log_message(format, *args)

    # -- endpoints -----------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        route = self._route()
        store = self._service.store
        if route == ("healthz",):
            self._send_json(
                200,
                {"status": "ok", "releases": len(store), **self._service.stats()},
            )
        elif route == ("statz",):
            if self._query_params().get("aggregate") in ("1", "true"):
                self._send_json(200, self._aggregate_stats())
            else:
                # Per-process view: these counters belong to *this*
                # worker only (scope marks that explicitly).
                self._send_json(
                    200,
                    {
                        "pid": os.getpid(),
                        "scope": "process",
                        **self._service.stats(),
                    },
                )
        elif route == ("metrics",):
            self._send_bytes(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                self._render_metrics().encode("utf-8"),
            )
        elif route == ("releases",):
            self._send_json(200, {"releases": store.entries()})
        elif len(route) == 2 and route[0] == "releases":
            try:
                self._send_json(200, store.manifest_entry(route[1]))
            except StoreError:
                self._send_error_json(404, f"unknown release id {route[1]!r}")
        else:
            self._send_error_json(404, f"no such endpoint: {self.path!r}")

    def _render_metrics(self) -> str:
        """Prometheus exposition: all worker slabs, else this process."""
        metrics_dir = getattr(self.server, "metrics_dir", None)
        if metrics_dir:
            merged = aggregate_slabs(metrics_dir)["metrics"]
            if merged:
                return render_prometheus(merged)
        return self._service.metrics.render_text()

    def _aggregate_stats(self) -> dict[str, Any]:
        """The ``/statz?aggregate=1`` payload: fleet-wide counter sums."""
        metrics_dir = getattr(self.server, "metrics_dir", None)
        if metrics_dir:
            aggregated = aggregate_slabs(metrics_dir)
            merged = aggregated["metrics"]
            if merged:

                def _value(name: str) -> int:
                    entry = merged.get(name)
                    return int(entry["value"]) if entry else 0

                return {
                    "scope": "aggregate",
                    "pids": aggregated["pids"],
                    "hits": _value("repro_serve_cache_hits_total"),
                    "misses": _value("repro_serve_cache_misses_total"),
                    "evictions": _value("repro_serve_cache_evictions_total"),
                    "resident": _value("repro_serve_cache_resident"),
                    "batches": _value("repro_serve_batches_total"),
                    "queries": _value("repro_serve_queries_total"),
                }
        # No slab directory (in-process server, tests): this process is
        # the whole fleet.
        return {
            "scope": "aggregate",
            "pids": [os.getpid()],
            **self._service.stats(),
        }

    def do_POST(self) -> None:  # noqa: N802
        # Error paths below bail without consuming the request body; the
        # unread bytes would desync a kept-alive HTTP/1.1 connection (the
        # next request line would be parsed out of the old body), so every
        # body-skipping response also closes the connection.
        route = self._route()
        if len(route) != 3 or route[0] != "releases" or route[2] != "query":
            self.close_connection = True
            self._send_error_json(404, f"no such endpoint: {self.path!r}")
            return
        release_id = route[1]
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self.close_connection = True
            self._send_error_json(400, "invalid Content-Length")
            return
        if length <= 0:
            self.close_connection = True
            self._send_error_json(400, "empty request body; send JSON")
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_json(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return
        if self.headers.get_content_type() == BINARY_WIRE_CONTENT_TYPE:
            payload = self.rfile.read(length)
            answers = self._answer_or_error(
                lambda: self._service.answer_batch_binary(release_id, payload),
                release_id,
            )
            if answers is not None:
                self._send_bytes(200, BINARY_ANSWERS_CONTENT_TYPE, answers)
            return
        payload = self.rfile.read(length)
        try:
            body = json.loads(payload)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, bytes that are not UTF-8 (UnicodeDecodeError)
            # and nesting past the recursion limit: the body has been read,
            # so the connection stays usable.
            self._send_error_json(400, f"request body is not valid JSON: {exc}")
            return
        raw_queries = body.get("queries") if isinstance(body, dict) else None
        if not isinstance(raw_queries, list):
            self._send_error_json(
                400, 'request body must be {"queries": [...]} with a list'
            )
            return
        response = self._answer_or_error(
            lambda: self._service.answer_batch(release_id, raw_queries), release_id
        )
        if response is not None:
            self._send_json(200, response)

    def _answer_or_error(self, answer: Any, release_id: str) -> Any:
        """Run an answer callable, mapping failures to error responses.

        Returns the callable's result, or ``None`` after having sent the
        appropriate error (errors are always JSON bodies, even for binary
        requests — a failed binary batch has no answer bytes to frame).
        """
        try:
            return answer()
        except StoreError:
            self._send_error_json(404, f"unknown release id {release_id!r}")
        except ArtifactLoadError as exc:
            # The server's stored artifact is broken — not the client's query.
            self._send_error_json(500, str(exc))
        except ValueError as exc:
            # Decode/validation errors carry the offending batch position
            # (QueryDecodeError / QueryValidationError), so one bad query
            # in a large batch is a structured 400, not an opaque failure.
            body: dict[str, Any] = {"error": str(exc)}
            index = getattr(exc, "index", None)
            if index is not None:
                body["query_index"] = int(index)
            self._send_json(400, body)
        except Exception as exc:  # never drop the connection without a body
            self._send_error_json(500, f"internal error: {exc}")
        return None


class SynopsisHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server wrapping one store + one service.

    Handler threads are *non*-daemon and ``server_close`` joins them
    (``block_on_close``), so a shutdown triggered mid-request lets the
    in-flight responses finish instead of killing their threads; the
    per-request socket timeout bounds how long that drain can take.

    Pass ``listen_socket`` to serve on an already-listening socket
    instead of binding a new one — the multi-worker path: the parent
    binds once, forks, and every worker accepts on the inherited fd.
    """

    daemon_threads = False
    block_on_close = True

    def __init__(
        self,
        address: tuple[str, int],
        store: ReleaseStore,
        *,
        cache_size: int = 8,
        quiet: bool = False,
        listen_socket: socket.socket | None = None,
        metrics_dir: str | None = None,
    ) -> None:
        if listen_socket is None:
            super().__init__(address, SynopsisRequestHandler)
        else:
            super().__init__(address, SynopsisRequestHandler, bind_and_activate=False)
            self.socket.close()  # the unbound socket the base ctor made
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()
            # server_bind() normally fills these (handlers report them).
            self.server_name = self.server_address[0]
            self.server_port = self.server_address[1]
        self.service = SynopsisService(store, cache_size=cache_size)
        self.metrics_dir = metrics_dir
        if metrics_dir is not None:
            # Mirror this process's service metrics into a per-pid slab so
            # /metrics and /statz?aggregate=1 see the whole worker fleet.
            self.service.metrics.bind_slab(metrics_dir)
        self.quiet = quiet


def _bind_listener(host: str, port: int, *, reuse_port: bool = False) -> socket.socket:
    """Bind + listen a TCP socket the way ThreadingHTTPServer would.

    The socket is non-blocking: pre-forked workers share it, and one
    connection can wake every worker's select.  A worker that loses the
    accept race then gets ``BlockingIOError``, which ``socketserver``
    ignores, so it returns to its select loop and still sees a shutdown
    request instead of sitting in ``accept()``.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(128)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


def _install_graceful_stop(server: SynopsisHTTPServer) -> dict[int, Any]:
    """SIGTERM/SIGINT -> graceful shutdown; returns the displaced handlers."""

    def _graceful_stop(signum: int, frame: object) -> None:
        # shutdown() blocks until serve_forever has returned; calling it
        # on the signal-handling (main) thread would deadlock, so hop off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous: dict[int, Any] = {}
    try:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _graceful_stop)
    except ValueError:
        # Not the main thread (e.g. a test harness): signals stay as they
        # are and the caller stops the server via shutdown() directly.
        previous = {}
    return previous


def _serve_single(
    store: ReleaseStore,
    address: tuple[str, int],
    *,
    cache_size: int,
    quiet: bool,
    listen_socket: socket.socket | None = None,
    metrics_dir: str | None = None,
) -> None:
    """One process's serve loop: graceful signals, drain, close."""
    server = SynopsisHTTPServer(
        address,
        store,
        cache_size=cache_size,
        quiet=quiet,
        listen_socket=listen_socket,
        metrics_dir=metrics_dir,
    )
    previous = _install_graceful_stop(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()


def _serve_forked(
    store: ReleaseStore,
    host: str,
    port: int,
    *,
    workers: int,
    cache_size: int,
    quiet: bool,
    metrics_dir: str | None = None,
) -> None:
    """Pre-fork ``workers`` processes accepting on one shared listener.

    The parent binds and listens, touches the store once (so a bad store
    path or manifest fails before any fork), then forks; each worker runs
    the ordinary serve loop on the inherited fd — the kernel load-balances
    accepts across them, and every worker memory-maps the same binary
    artifacts, so the resident arrays are shared pages, not copies.  If
    the inherited socket cannot be shared, workers fall back to binding
    their own ``SO_REUSEPORT`` socket on the same address.  The parent
    forwards SIGTERM/SIGINT to the workers and reaps them all, so each
    worker drains in-flight requests before the group exits.
    """
    store.entries()  # build/validate the store index pre-fork
    try:
        listener = _bind_listener(host, port, reuse_port=workers > 1)
        reuse_port = workers > 1
    except OSError:
        # SO_REUSEPORT unsupported (or refused): a plain listener still
        # serves every worker via fork inheritance.
        listener = _bind_listener(host, port)
        reuse_port = False
    address = listener.getsockname()[:2]
    children: list[int] = []
    try:
        for _ in range(workers):
            pid = os.fork()
            if pid == 0:
                # Worker: serve on the inherited listener; if wrapping it
                # fails and the port allows rebinding, bind our own.
                code = 0
                try:
                    try:
                        _serve_single(
                            store,
                            address,
                            cache_size=cache_size,
                            quiet=quiet,
                            listen_socket=listener,
                            metrics_dir=metrics_dir,
                        )
                    except OSError:
                        if not reuse_port:
                            raise
                        listener.close()
                        _serve_single(
                            store,
                            address,
                            cache_size=cache_size,
                            quiet=quiet,
                            listen_socket=_bind_listener(*address, reuse_port=True),
                            metrics_dir=metrics_dir,
                        )
                except BaseException:
                    code = 1
                finally:
                    os._exit(code)  # never fall back into the parent's stack
            children.append(pid)

        def _forward(signum: int, frame: object) -> None:
            for child in children:
                try:
                    os.kill(child, signum)
                except ProcessLookupError:
                    pass

        previous = {
            sig: signal.signal(sig, _forward)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            for pid in children:
                while True:
                    try:
                        os.waitpid(pid, 0)
                        break
                    except InterruptedError:
                        continue  # a forwarded signal interrupted the wait
            children = []
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
    finally:
        for child in children:  # fork failed partway: don't leak workers
            try:
                os.kill(child, signal.SIGTERM)
                os.waitpid(child, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        listener.close()


def serve(
    store: ReleaseStore,
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    cache_size: int = 8,
    quiet: bool = False,
    workers: int = 1,
) -> None:
    """Serve ``store`` over HTTP until interrupted or SIGTERM'd (blocking).

    SIGTERM and SIGINT both trigger a *graceful* stop: the accept loop
    exits, in-flight requests run to completion, and only then does the
    listening socket close — so an orchestrator's ``kill`` (or Ctrl-C)
    never truncates a response mid-body.

    ``workers > 1`` pre-forks that many serving processes sharing one
    listening socket (POSIX only); the same graceful-stop contract holds
    for the whole group.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    # One slab directory for the whole serve group: the parent creates it
    # pre-fork so every worker can bind its per-pid slab inside, and any
    # worker can answer /metrics or /statz?aggregate=1 for the fleet.
    metrics_dir = tempfile.mkdtemp(prefix="repro-serve-metrics-")
    try:
        if workers == 1:
            _serve_single(
                store,
                (host, port),
                cache_size=cache_size,
                quiet=quiet,
                metrics_dir=metrics_dir,
            )
            return
        if not hasattr(os, "fork"):
            raise RuntimeError("--workers > 1 requires os.fork (POSIX)")
        _serve_forked(
            store,
            host,
            port,
            workers=workers,
            cache_size=cache_size,
            quiet=quiet,
            metrics_dir=metrics_dir,
        )
    finally:
        shutil.rmtree(metrics_dir, ignore_errors=True)
