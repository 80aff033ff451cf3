"""A closed-loop keep-alive HTTP client and the ``repro serve`` process.

``repro.experiments.loadgen.run_load`` raises on the first non-200, so it
cannot report a failure share; this client records every request as one
:class:`Sample` instead.  Each request is timed from the first byte sent
to the last body byte read.  At most two connections are open, one per
closed-loop client: the host has two CPUs, and a third client would only
queue behind the server's GIL.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Closed-loop clients (and connections) the serve workloads run.
MAX_CLIENTS = 2

#: Seconds one request may take before it counts as a socket failure.
REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Sample:
    """One request: wall time, and why it failed (``None`` when it did not)."""

    seconds: float
    error: str | None = None
    body: bytes = b""


class KeepAliveClient:
    """One persistent HTTP/1.1 connection that POSTs and times requests.

    Failures (socket errors, non-200 status, a body shorter than its
    ``Content-Length``) come back as samples with ``error`` set; the
    connection is then dropped and re-dialled on the next request.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._sock: socket.socket | None = None
        self._reader = None

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=REQUEST_TIMEOUT_S)
        # The request leaves in one sendall; NODELAY keeps its last partial
        # segment from waiting on an ACK, so only server-side delays show.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
        if self._sock is not None:
            self._sock.close()
        self._sock = None
        self._reader = None

    def post(self, path: str, body: bytes, content_type: str) -> Sample:
        """POST ``body``; the sample's time runs from send to last body byte."""
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        return self._request(head + body)

    def _request(self, data: bytes) -> Sample:
        started = time.perf_counter()
        try:
            if self._sock is None:
                self._connect()
            self._sock.sendall(data)
            status, length = self._read_head()
            payload = self._reader.read(length)
        except (OSError, ValueError) as exc:
            self.close()
            return Sample(time.perf_counter() - started, f"socket: {type(exc).__name__}")
        elapsed = time.perf_counter() - started
        if len(payload) < length:
            self.close()
            return Sample(elapsed, "short body")
        if status != 200:
            return Sample(elapsed, f"status {status}", payload)
        return Sample(elapsed, None, payload)

    def _read_head(self) -> tuple[int, int]:
        status_line = self._reader.readline(65537)
        if not status_line:
            raise ConnectionError("connection closed before the status line")
        parts = status_line.split(None, 2)
        if len(parts) < 2:
            raise ValueError(f"malformed status line {status_line[:80]!r}")
        status = int(parts[1])
        length = 0
        while True:
            line = self._reader.readline(65537)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        return status, length


@dataclass
class LoadResult:
    """Every request of one closed-loop pass, in completion order per client."""

    samples: list[Sample]
    window_s: float


def run_closed_loop(
    host: str,
    port: int,
    make_request: Callable[[KeepAliveClient], Sample],
    *,
    clients: int,
    seconds: float,
) -> LoadResult:
    """Drive ``clients`` closed-loop connections for ``seconds``.

    Each client sends its next request only after the previous reply has
    been read, and stops sending once the deadline passes; the window
    ends when the last in-flight reply lands.  Client 0 runs on the
    calling thread, so the pass uses ``clients`` threads in all.
    """
    if not 1 <= clients <= MAX_CLIENTS:
        raise ValueError(f"clients must be in 1..{MAX_CLIENTS}, got {clients}")
    per_client: list[list[Sample]] = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients)
    start: list[float] = []

    def _loop(index: int) -> None:
        client = KeepAliveClient(host, port)
        try:
            barrier.wait()
            if index == 0:
                start.append(time.perf_counter())
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                per_client[index].append(make_request(client))
        finally:
            client.close()

    helpers = [threading.Thread(target=_loop, args=(i,)) for i in range(1, clients)]
    for thread in helpers:
        thread.start()
    try:
        _loop(0)
    finally:
        for thread in helpers:
            thread.join()
    window = time.perf_counter() - start[0]
    return LoadResult([s for samples in per_client for s in samples], window)


def free_port() -> int:
    """An OS-assigned free TCP port (closed again; the reuse race is tiny)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServeProcess:
    """``repro serve --workers 1`` as a child process of the benchmark.

    Started with ``PYTHONPATH`` pointing at the checkout's ``src``.  It
    inherits ``TMPDIR``, which ``run.py`` points inside the checkout, so
    the server's metrics slab directory stays there too.
    """

    def __init__(self, src: Path, store: Path, workdir: Path) -> None:
        self.port = free_port()
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(store),
                "--port", str(self.port),
                "--workers", "1",
                "--quiet",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=str(workdir),
        )
        try:
            self._wait_healthy(timeout_s=60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, timeout_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        while True:
            try:
                self.get_json("/healthz")
                return
            except (urllib.error.URLError, OSError):
                if self.proc.poll() is not None:
                    raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
                if time.perf_counter() > deadline:
                    raise RuntimeError("repro serve never became healthy")
                time.sleep(0.05)

    def get_text(self, path: str) -> str:
        url = f"http://127.0.0.1:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=REQUEST_TIMEOUT_S) as response:
            return response.read().decode("utf-8")

    def get_json(self, path: str) -> dict:
        return json.loads(self.get_text(path))

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set), in MiB."""
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process from ``/proc``, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")
