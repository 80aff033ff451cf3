"""Out-of-process collectors: TCP server, client proxy, and loopback.

This module turns the message-shaped protocol of
:class:`~repro.federated.collector.ShardCollector` into a real networked
party while keeping the coordinator's duck-typed surface unchanged — a
:class:`ProtocolClient` exposes the same ``domain`` / ``dims_per_split`` /
``blinded_counts`` / ``apply_splits`` the in-process collector does, so
:class:`~repro.federated.driver.FederatedPrivTree` drives either without
knowing which it holds.

Three layers:

* :class:`CollectorEndpoint` — the collector-side message handler: round
  sequencing (every request carries a round id that must be *exactly*
  the next one, or a cached one for idempotent re-requests), a bounded
  response cache so retried rounds never re-consume mask streams, the
  hello handshake, and the Diffie-Hellman pair-key exchange.
* Channels — :class:`TcpChannel` over a socket and
  :class:`LoopbackChannel` over an in-process endpoint; both speak the
  framed wire of :mod:`repro.federated.transport` and both accept a
  :class:`~repro.federated.faults.FaultInjector`, so the identical
  failure matrix runs in tier-1 tests (loopback, milliseconds) and in
  the chaos smoke (real sockets).
* :class:`ProtocolClient` — the coordinator-side proxy: per-round
  deadline, bounded retries with exponential backoff + full jitter,
  duplicate/reorder-safe response matching (stale frames are skipped by
  round id, never consumed as another round's answer), reconnection
  after connection loss, and typed errors naming the shard on failure.

:class:`CollectorServer` wraps an endpoint in a threading TCP server for
``repro collector-serve``; :func:`connect_collectors` /
:func:`loopback_collectors` build the coordinator's client ring and run
the key exchange.
"""

from __future__ import annotations

import io
import socket
import socketserver
import threading
import time
from collections import OrderedDict, deque
from typing import Sequence

import numpy as np

from ..domains.box import Box
from ..mechanisms.rng import ensure_rng
from .collector import ShardCollector
from .errors import (
    CollectorCrashError,
    CollectorTimeoutError,
    FederatedProtocolError,
    FrameCorruptError,
    KeyExchangeError,
    RoundMismatchError,
    ShareShapeError,
    error_from_wire,
    error_type_name,
)
from ..telemetry import get_registry
from .faults import FaultInjector
from .transport import (
    DiffieHellman,
    RetryPolicy,
    decode_node_ids,
    decode_shares,
    derive_pair_seed,
    encode_frame,
    encode_shares,
    node_ids_digest,
    read_frame,
)

__all__ = [
    "CollectorEndpoint",
    "CollectorServer",
    "LoopbackChannel",
    "ProtocolClient",
    "TcpChannel",
    "connect_collectors",
    "loopback_collectors",
]

# Always-on transport health counters; scraped via the default registry.
_RETRIES = get_registry().counter(
    "repro_federated_retries_total",
    help="Request attempts beyond the first (any shard, any kind)",
)
_TIMEOUTS = get_registry().counter(
    "repro_federated_timeouts_total",
    help="Rounds aborted with CollectorTimeoutError",
)
_CRASHES = get_registry().counter(
    "repro_federated_crashes_total",
    help="Rounds aborted with CollectorCrashError",
)
_RECONNECTS = get_registry().counter(
    "repro_federated_reconnects_total",
    help="Coordinator re-dials after a broken collector connection",
)

#: How many committed rounds an endpoint keeps replayable.  A resumed
#: coordinator only ever redoes its last uncommitted level (one counts
#: round + one splits round), so 4 gives a margin without unbounded state.
ROUND_CACHE_DEPTH = 4

#: Stale frames a client will skip while waiting for one round's response
#: (duplicates and late deliveries of earlier rounds land here).
MAX_STALE_FRAMES = 64


def box_to_wire(box: Box) -> dict:
    return {"low": list(box.low), "high": list(box.high)}


def box_from_wire(data: dict) -> Box:
    return Box.from_arrays(data["low"], data["high"])


# -- collector side ----------------------------------------------------


class CollectorEndpoint:
    """One collector's protocol state machine (transport-agnostic).

    Both the TCP server and the loopback channel feed decoded frames to
    :meth:`handle`, which returns the response frame.  Protocol failures
    become ``error`` frames (typed via their wire tag), never raw
    tracebacks on the wire, and never a silently-wrong answer.
    """

    def __init__(
        self,
        collector: ShardCollector,
        *,
        dh_private: int | None = None,
    ) -> None:
        self.collector = collector
        self.shard_id = collector.shard_id
        self.dh = DiffieHellman(dh_private)
        self.session: str | None = None
        self.keyed_publics: dict[int, int] | None = None
        self.last_round = -1
        self._cache: OrderedDict[int, dict] = OrderedDict()
        self._lock = threading.Lock()

    def handle(self, message: dict) -> dict:
        """One request frame in, one response frame out (thread-safe)."""
        with self._lock:
            try:
                return self._dispatch(message)
            except FederatedProtocolError as exc:
                return self._error(exc, message.get("round"))
            except KeyError as exc:
                # The collector refused a round's node numbers (unknown,
                # repeated, out-of-order or unsplittable node): a
                # sequencing bug.
                return self._error(
                    RoundMismatchError(
                        f"shard {self.shard_id}: {exc.args[0]}",
                        shard_id=self.shard_id,
                    ),
                    message.get("round"),
                )

    def _error(self, exc: FederatedProtocolError, round_index) -> dict:
        return {
            "kind": "error",
            "error_type": error_type_name(exc),
            "detail": str(exc),
            "shard_id": self.shard_id,
            "round": round_index,
        }

    def _dispatch(self, message: dict) -> dict:
        kind = message.get("kind")
        if kind == "hello":
            return self._hello(message)
        if kind == "keys":
            return self._keys(message)
        if kind in ("counts_request", "splits_request"):
            return self._round(message)
        if kind == "heartbeat":
            return {"kind": "heartbeat_ack", "shard_id": self.shard_id}
        if kind == "finish":
            return {"kind": "finish_ack", "shard_id": self.shard_id}
        raise FederatedProtocolError(
            f"shard {self.shard_id} cannot handle frame kind {kind!r}",
            shard_id=self.shard_id,
        )

    def _hello(self, message: dict) -> dict:
        session = message.get("session")
        if not isinstance(session, str) or not session:
            raise FederatedProtocolError(
                "hello must carry a non-empty session string",
                shard_id=self.shard_id,
            )
        if self.session is None or self.last_round < 0 and self.keyed_publics is None:
            self.session = session
        elif session != self.session:
            raise FederatedProtocolError(
                f"shard {self.shard_id} is serving session {self.session!r} "
                f"and cannot join {session!r} mid-fit",
                shard_id=self.shard_id,
            )
        n_shards = message.get("n_shards")
        if n_shards is not None and n_shards != self.collector.n_shards:
            raise FederatedProtocolError(
                f"shard {self.shard_id} was configured for "
                f"{self.collector.n_shards} shards, coordinator says {n_shards}",
                shard_id=self.shard_id,
            )
        return {
            "kind": "hello_ack",
            "shard_id": self.shard_id,
            "n_shards": self.collector.n_shards,
            "n_points": self.collector.n_points,
            "dims_per_split": self.collector.dims_per_split,
            "domain": box_to_wire(self.collector.domain),
            "dh_public": self.dh.public,
            "last_round": self.last_round,
            "keyed": self.keyed_publics is not None,
        }

    def _keys(self, message: dict) -> dict:
        publics_raw = message.get("publics")
        if not isinstance(publics_raw, dict):
            raise KeyExchangeError(
                "keys frame must carry a {shard_id: public} mapping",
                shard_id=self.shard_id,
            )
        publics = {int(k): int(v) for k, v in publics_raw.items()}
        if self.keyed_publics is not None:
            if publics != self.keyed_publics:
                raise KeyExchangeError(
                    f"shard {self.shard_id} already keyed with different "
                    "publics; a mid-fit rekey would desync the mask streams",
                    shard_id=self.shard_id,
                )
            return {"kind": "keys_ack", "shard_id": self.shard_id}
        expected = set(range(self.collector.n_shards))
        if set(publics) != expected:
            raise KeyExchangeError(
                f"shard {self.shard_id} expected publics for shards "
                f"{sorted(expected)}, got {sorted(publics)}",
                shard_id=self.shard_id,
            )
        if publics[self.shard_id] != self.dh.public:
            raise KeyExchangeError(
                f"shard {self.shard_id}'s own public key in the keys frame "
                "does not match; the exchange was tampered with",
                shard_id=self.shard_id,
            )
        session = self.session or ""
        pair_seeds = {}
        for peer, public in publics.items():
            if peer == self.shard_id:
                continue
            secret = self.dh.shared_secret(public)
            pair = (min(self.shard_id, peer), max(self.shard_id, peer))
            pair_seeds[pair] = derive_pair_seed(secret, pair, session)
        self.collector.rekey(pair_seeds)
        self.keyed_publics = publics
        return {"kind": "keys_ack", "shard_id": self.shard_id}

    def _round(self, message: dict) -> dict:
        round_index = message.get("round")
        if not isinstance(round_index, int):
            raise FederatedProtocolError(
                f"shard {self.shard_id}: a round frame needs an integer round",
                shard_id=self.shard_id,
            )
        try:
            node_ids = decode_node_ids(message.get("node_ids"))
        except ValueError as exc:
            raise FederatedProtocolError(
                f"shard {self.shard_id}: round {round_index}'s node_ids {exc}",
                shard_id=self.shard_id,
                round_index=round_index,
            ) from None
        digest = node_ids_digest(node_ids)
        cached = self._cache.get(round_index)
        if cached is not None:
            # Idempotent re-request: replay the recorded response without
            # touching the collector, so mask streams advance exactly once
            # per round no matter how many times it is retried.
            if cached["digest"] != digest:
                raise RoundMismatchError(
                    f"shard {self.shard_id}: round {round_index} replayed "
                    f"with different node ids (digest {digest} vs the "
                    f"committed {cached['digest']})",
                    shard_id=self.shard_id,
                    round_index=round_index,
                )
            return cached["response"]
        if round_index != self.last_round + 1:
            raise RoundMismatchError(
                f"shard {self.shard_id} expected round {self.last_round + 1} "
                f"(or a replay of rounds {sorted(self._cache)}), got round "
                f"{round_index}",
                shard_id=self.shard_id,
                round_index=round_index,
            )
        if message["kind"] == "counts_request":
            shares = self.collector.blinded_counts(node_ids)
            response = {
                "kind": "counts_response",
                "round": round_index,
                "shard_id": self.shard_id,
                "digest": digest,
                "shares": encode_shares(shares),
            }
        else:
            self.collector.apply_splits(node_ids)
            response = {
                "kind": "splits_ack",
                "round": round_index,
                "shard_id": self.shard_id,
                "digest": digest,
            }
        self.last_round = round_index
        self._cache[round_index] = {"digest": digest, "response": response}
        while len(self._cache) > ROUND_CACHE_DEPTH:
            self._cache.popitem(last=False)
        return response


class _CollectorRequestHandler(socketserver.BaseRequestHandler):
    """One TCP connection: a loop of framed requests onto the endpoint."""

    def handle(self) -> None:
        sock = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        endpoint: CollectorEndpoint = self.server.endpoint  # type: ignore[attr-defined]
        while True:
            try:
                message = read_frame(lambda n: _recv_exactly(sock, n))
            except FederatedProtocolError as exc:
                # A corrupt frame or one of another version.  Report and
                # keep the connection: framing is intact (the length
                # prefix is never corrupted by the injector) so the stream
                # stays parseable and the client can retry or give up.
                response = endpoint._error(exc, None)
            except (ConnectionError, OSError):
                return
            else:
                response = endpoint.handle(message)
            try:
                sock.sendall(encode_frame(response))
            except (ConnectionError, OSError):
                return
            if message_kind_closes(response):
                return


def message_kind_closes(response: dict) -> bool:
    return response.get("kind") == "finish_ack"


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return b"".join(chunks)  # short read -> ConnectionError upstream
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class CollectorServer(socketserver.ThreadingTCPServer):
    """Serves one :class:`CollectorEndpoint` over TCP.

    Long-lived: the coordinator connects once and holds the connection
    across rounds; a crashed-and-resumed coordinator reconnects and the
    shared endpoint picks up where the round cache left off.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        endpoint: CollectorEndpoint,
    ) -> None:
        super().__init__(address, _CollectorRequestHandler)
        self.endpoint = endpoint

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


# -- channels ----------------------------------------------------------


class TcpChannel:
    """A framed client connection to one collector server."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        injector: FaultInjector | None = None,
        shard_hint: int | None = None,
        connect_timeout_s: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.injector = injector
        self.shard_hint = shard_hint
        self.connect_timeout_s = connect_timeout_s
        self._sock: socket.socket | None = None

    def connect(self) -> None:
        self.close()
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def send(self, data: bytes, *, round_index: int | None = None) -> None:
        if self._sock is None:
            raise ConnectionError("channel is not connected")
        if self.injector is not None:
            if round_index is not None and self.shard_hint is not None:
                if self.injector.should_kill_collector(self.shard_hint, round_index):
                    raise ConnectionError(
                        f"collector shard {self.shard_hint} was killed"
                    )
            frames = self.injector.on_frame(data)
        else:
            frames = [data]
        for frame in frames:
            self._sock.sendall(frame)

    def recv(self, timeout_s: float) -> dict:
        if self._sock is None:
            raise ConnectionError("channel is not connected")
        self._sock.settimeout(max(timeout_s, 1e-3))
        return read_frame(lambda n: _recv_exactly(self._sock, n))

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


class LoopbackChannel:
    """An in-process 'connection' to an endpoint, with fault injection.

    Requests are framed, passed through the injector, decoded, handled,
    and the framed responses pass through the injector again into an
    inbox — so drops, duplicates, and corruption hit *both* directions
    exactly as they would on a socket, but without threads or real
    timeouts (an empty inbox raises ``TimeoutError`` immediately, keeping
    the failure-matrix tests fast).
    """

    def __init__(
        self,
        endpoint: CollectorEndpoint,
        *,
        injector: FaultInjector | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.injector = injector
        self.shard_hint = endpoint.shard_id
        self._inbox: deque[bytes] = deque()
        self.killed = False
        self._connected = False

    def connect(self) -> None:
        if self.killed:
            raise ConnectionError(
                f"collector shard {self.endpoint.shard_id} is dead"
            )
        self._connected = True
        self._inbox.clear()

    def send(self, data: bytes, *, round_index: int | None = None) -> None:
        if self.killed or not self._connected:
            raise ConnectionError(
                f"collector shard {self.endpoint.shard_id} is unreachable"
            )
        if self.injector is not None and round_index is not None:
            if self.injector.should_kill_collector(
                self.endpoint.shard_id, round_index
            ):
                self.killed = True
                raise ConnectionError(
                    f"collector shard {self.endpoint.shard_id} was killed"
                )
        frames = self.injector.on_frame(data) if self.injector else [data]
        for frame in frames:
            try:
                message = _decode_wire_bytes(frame)
            except FederatedProtocolError as exc:
                response = self.endpoint._error(exc, None)
            else:
                response = self.endpoint.handle(message)
            out = encode_frame(response)
            deliveries = self.injector.on_frame(out) if self.injector else [out]
            self._inbox.extend(deliveries)

    def recv(self, timeout_s: float) -> dict:
        if self.killed or not self._connected:
            raise ConnectionError(
                f"collector shard {self.endpoint.shard_id} is unreachable"
            )
        if not self._inbox:
            raise TimeoutError("no frame pending on the loopback channel")
        return _decode_wire_bytes(self._inbox.popleft())

    def close(self) -> None:
        self._connected = False


def _decode_wire_bytes(data: bytes) -> dict:
    stream = io.BytesIO(data)
    return read_frame(stream.read)


# -- coordinator side --------------------------------------------------


class ProtocolClient:
    """The coordinator's proxy for one remote (or loopback) collector.

    Duck-compatible with :class:`ShardCollector` for everything the
    driver needs, plus the failure policy: each logical request runs
    under the channel's :class:`RetryPolicy` — per-attempt timeout,
    bounded retries with exponential backoff + full jitter, reconnection
    on connection loss — and under a per-round deadline.  A collector
    that cannot answer in time aborts the round with a typed error
    naming the shard; a late, duplicated, or reordered frame is skipped
    by round-id matching, never consumed as another round's answer.
    """

    def __init__(
        self,
        channel: TcpChannel | LoopbackChannel,
        *,
        session: str,
        retry: RetryPolicy | None = None,
        jitter_rng=None,
    ) -> None:
        self.channel = channel
        self.session = session
        self.retry = retry or RetryPolicy()
        self._jitter = ensure_rng(jitter_rng if jitter_rng is not None else 0)
        self._round = 0
        self.shard_id: int = -1
        self.n_points = 0
        self.server_last_round = -1
        self.keyed = False
        self.dh_public: int | None = None
        self._domain: Box | None = None
        self._dims_per_split: int | None = None

    # -- handshake -----------------------------------------------------

    def connect(self, *, expected_n_shards: int | None = None) -> dict:
        """Dial (or re-dial) the collector and run the hello handshake."""
        self.channel.connect()
        ack = self._request(
            {
                "kind": "hello",
                "session": self.session,
                "n_shards": expected_n_shards,
            },
            expect="hello_ack",
        )
        self.shard_id = int(ack["shard_id"])
        if getattr(self.channel, "shard_hint", None) is None:
            self.channel.shard_hint = self.shard_id
        self.n_points = int(ack["n_points"])
        self.server_last_round = int(ack["last_round"])
        self.keyed = bool(ack["keyed"])
        self.dh_public = int(ack["dh_public"])
        self._domain = box_from_wire(ack["domain"])
        self._dims_per_split = int(ack["dims_per_split"])
        return ack

    @property
    def domain(self) -> Box:
        if self._domain is None:
            raise ConnectionError("client is not connected (no hello yet)")
        return self._domain

    @property
    def dims_per_split(self) -> int:
        if self._dims_per_split is None:
            raise ConnectionError("client is not connected (no hello yet)")
        return self._dims_per_split

    # -- the collector protocol ----------------------------------------

    def blinded_counts(self, node_ids) -> np.ndarray:
        numbers = np.asarray(node_ids, dtype=np.int64)
        response = self._request(
            {
                "kind": "counts_request",
                "round": self._round,
                "node_ids": numbers.tolist(),
            },
            expect="counts_response",
        )
        self._check_digest(response, numbers)
        try:
            shares = decode_shares(response.get("shares"), numbers.size)
        except ShareShapeError as exc:
            raise ShareShapeError(
                f"shard {self.shard_id} round {self._round}: {exc}",
                shard_id=self.shard_id,
                round_index=self._round,
            ) from None
        self._round += 1
        return shares

    def apply_splits(self, node_ids) -> None:
        numbers = np.asarray(node_ids, dtype=np.int64)
        response = self._request(
            {
                "kind": "splits_request",
                "round": self._round,
                "node_ids": numbers.tolist(),
            },
            expect="splits_ack",
        )
        self._check_digest(response, numbers)
        self._round += 1

    def sync_round(self, next_round: int) -> None:
        """Set the next round id (resume: the checkpoint's next round)."""
        if next_round < 0:
            raise ValueError(f"next_round must be >= 0, got {next_round}")
        self._round = next_round

    def heartbeat(self) -> None:
        self._request({"kind": "heartbeat"}, expect="heartbeat_ack")

    def finish(self) -> None:
        """Best-effort goodbye; the channel is closed either way."""
        try:
            self._request({"kind": "finish"}, expect="finish_ack")
        except (FederatedProtocolError, ConnectionError, TimeoutError, OSError):
            pass
        finally:
            self.channel.close()

    def _check_digest(self, response: dict, node_ids: np.ndarray) -> None:
        expected = node_ids_digest(node_ids)
        if response.get("digest") != expected:
            raise RoundMismatchError(
                f"shard {self.shard_id} answered round "
                f"{response.get('round')} for a different node list "
                f"(digest {response.get('digest')!r}, expected {expected!r})",
                shard_id=self.shard_id,
                round_index=response.get("round"),
            )

    # -- request/retry engine ------------------------------------------

    def _request(self, message: dict, *, expect: str) -> dict:
        round_index = message.get("round")
        deadline = self.retry.deadline_from()
        backoffs = list(self.retry.backoffs(self._jitter.random))
        last_failure: BaseException | None = None
        connection_dead = False
        for attempt in range(self.retry.attempts):
            if time.monotonic() >= deadline:
                break
            if attempt:
                _RETRIES.inc()
            try:
                if connection_dead:
                    self._reconnect(message)
                    connection_dead = False
                self.channel.send(
                    encode_frame(message), round_index=round_index
                )
                response = self._await(expect, round_index, deadline)
            except FrameCorruptError as exc:
                # A corrupt *response* frame may have desynced the stream
                # (e.g. a timeout mid-body); reconnect for a clean slate —
                # the endpoint's round cache makes the retry idempotent.
                last_failure = exc
                connection_dead = True
            except (ConnectionError, TimeoutError, OSError) as exc:
                last_failure = exc
                connection_dead = isinstance(exc, (ConnectionError, OSError)) and not isinstance(
                    exc, TimeoutError
                )
            else:
                if response is not None:
                    return response
                last_failure = TimeoutError(
                    f"no response within {self.retry.timeout_s:g}s"
                )
            if attempt < len(backoffs) and time.monotonic() < deadline:
                time.sleep(min(backoffs[attempt], max(0.0, deadline - time.monotonic())))
        shard = self.shard_id if self.shard_id >= 0 else getattr(
            self.channel, "shard_hint", None
        )
        label = f"shard {shard}" if shard is not None else "collector"
        if connection_dead:
            _CRASHES.inc()
            raise CollectorCrashError(
                f"{label} is unreachable for round {round_index!r} of "
                f"{message['kind']!r} after {self.retry.attempts} attempt(s): "
                f"{last_failure}; the round was aborted, nothing was aggregated",
                shard_id=shard if isinstance(shard, int) else None,
                round_index=round_index if isinstance(round_index, int) else None,
            ) from last_failure
        _TIMEOUTS.inc()
        raise CollectorTimeoutError(
            f"{label} missed its deadline for round {round_index!r} of "
            f"{message['kind']!r} ({self.retry.attempts} attempt(s), "
            f"{self.retry.deadline_s:g}s deadline): {last_failure}; the round "
            "was aborted, nothing was aggregated",
            shard_id=shard if isinstance(shard, int) else None,
            round_index=round_index if isinstance(round_index, int) else None,
        ) from last_failure

    def _reconnect(self, pending: dict) -> None:
        """Re-dial and re-hello after a broken connection (not for hello
        itself, which *is* the handshake)."""
        _RECONNECTS.inc()
        if pending.get("kind") == "hello":
            self.channel.connect()
            return
        self.channel.connect()
        hello = {"kind": "hello", "session": self.session}
        self.channel.send(encode_frame(hello))
        ack = self._await("hello_ack", None, self.retry.deadline_from())
        if ack is None:
            raise ConnectionError("reconnect handshake timed out")
        self.server_last_round = int(ack["last_round"])

    def _await(
        self, expect: str, round_index, deadline: float
    ) -> dict | None:
        """Read frames until the one matching ``(expect, round)`` arrives.

        Returns ``None`` on a clean per-attempt timeout (caller retries).
        Stale frames — duplicated responses, late deliveries of earlier
        rounds — are counted and skipped, never returned.
        """
        skipped = 0
        while skipped <= MAX_STALE_FRAMES:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            timeout = min(self.retry.timeout_s, remaining)
            try:
                frame = self.channel.recv(timeout)
            except TimeoutError:
                return None
            kind = frame.get("kind")
            if kind == "error":
                tag = frame.get("error_type", "protocol")
                if tag == "frame_corrupt":
                    # The request arrived mangled; resending is safe and
                    # idempotent, so treat like a lost frame.
                    return None
                raise error_from_wire(
                    tag,
                    str(frame.get("detail", "collector reported an error")),
                    shard_id=frame.get("shard_id"),
                    round_index=frame.get("round"),
                )
            if kind == expect and frame.get("round") == round_index:
                return frame
            if kind == expect and round_index is None:
                return frame
            skipped += 1  # duplicate or reordered: identified and dropped
        raise FederatedProtocolError(
            f"shard {self.shard_id}: gave up after skipping "
            f"{skipped} stale frames while waiting for {expect!r} of round "
            f"{round_index!r}",
            shard_id=self.shard_id if self.shard_id >= 0 else None,
            round_index=round_index if isinstance(round_index, int) else None,
        )


# -- ring construction -------------------------------------------------


def exchange_keys(clients: Sequence[ProtocolClient]) -> None:
    """Run the pairwise key exchange across a connected client ring.

    Collects every collector's DH public from its hello ack, then
    broadcasts the full mapping; each collector derives its pair seeds
    locally and rekeys its blinder.  Idempotent: already-keyed endpoints
    ack as long as the publics match (the reconnect-after-crash path).
    """
    publics = {}
    for client in clients:
        if client.dh_public is None:
            raise KeyExchangeError(
                "key exchange needs connected clients (hello first)"
            )
        publics[client.shard_id] = client.dh_public
    if len(publics) != len(clients):
        raise KeyExchangeError(
            f"duplicate shard ids in the ring: {sorted(c.shard_id for c in clients)}"
        )
    frame = {"kind": "keys", "publics": {str(k): v for k, v in publics.items()}}
    for client in clients:
        client._request(dict(frame), expect="keys_ack")
        client.keyed = True


def connect_collectors(
    addresses: Sequence[tuple[str, int]],
    *,
    session: str,
    retry: RetryPolicy | None = None,
    injector: FaultInjector | None = None,
    n_shards: int | None = None,
    exchange: bool = True,
) -> list[ProtocolClient]:
    """Dial a ring of TCP collectors, handshake, and (optionally) key them.

    Returns the clients sorted by shard id — the order the aggregator and
    driver expect.  ``n_shards`` defaults to ``len(addresses)``.
    """
    expected = n_shards if n_shards is not None else len(addresses)
    clients = []
    for host, port in addresses:
        channel = TcpChannel(host, port, injector=injector)
        client = ProtocolClient(channel, session=session, retry=retry)
        client.connect(expected_n_shards=expected)
        clients.append(client)
    clients.sort(key=lambda c: c.shard_id)
    ids = [c.shard_id for c in clients]
    if ids != list(range(expected)):
        raise FederatedProtocolError(
            f"collector ring is incomplete or duplicated: got shard ids {ids}, "
            f"expected 0..{expected - 1}"
        )
    if exchange:
        exchange_keys(clients)
    return clients


def loopback_collectors(
    collectors: Sequence[ShardCollector],
    *,
    session: str = "loopback",
    retry: RetryPolicy | None = None,
    injector: FaultInjector | None = None,
    exchange: bool = True,
    dh_privates: Sequence[int] | None = None,
) -> list[ProtocolClient]:
    """The whole transport stack, in-process: endpoints behind loopback
    channels, framed messages, fault injection — everything but sockets.

    This is what the tier-1 failure-matrix tests drive: identical client
    logic and identical frames to the TCP path, at memory speed.
    """
    if retry is None:
        # Loopback timeouts are immediate, so generous attempt counts are
        # cheap; keep backoff sleeps negligible.
        retry = RetryPolicy(
            attempts=8, timeout_s=0.1, base_backoff_s=1e-4, max_backoff_s=1e-3
        )
    clients = []
    for i, collector in enumerate(collectors):
        private = dh_privates[i] if dh_privates is not None else None
        endpoint = CollectorEndpoint(collector, dh_private=private)
        channel = LoopbackChannel(endpoint, injector=injector)
        client = ProtocolClient(channel, session=session, retry=retry)
        client.connect(expected_n_shards=collector.n_shards)
        clients.append(client)
    clients.sort(key=lambda c: c.shard_id)
    if exchange:
        exchange_keys(clients)
    return clients
