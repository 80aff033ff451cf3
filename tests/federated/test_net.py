"""Tests for the transport stack: endpoint, channels, retry, failure matrix.

The loopback channel runs the *identical* client logic and frames as the
TCP path (same encode/decode, same endpoint, same retry engine) at memory
speed, so the whole failure matrix lives in tier-1.  One test drives real
sockets to pin the TCP glue itself.
"""

import json
import socket
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.federated import (
    CollectorCrashError,
    CollectorTimeoutError,
    FaultInjector,
    FaultPlan,
    FederatedPrivTree,
    FrameVersionError,
    RoundMismatchError,
    ShardCollector,
    ShareShapeError,
    connect_collectors,
    loopback_collectors,
    shard_dataset,
)
from repro.federated.net import (
    CollectorEndpoint,
    CollectorServer,
    LoopbackChannel,
    ProtocolClient,
    TcpChannel,
    _recv_exactly,
)
from repro.federated.transport import FRAME_FORMAT, RetryPolicy, read_frame
from repro.mechanisms import PrivacyAccountant
from repro.telemetry import get_registry
from repro.spatial import SpatialDataset
from repro.spatial.serialize import tree_to_dict

from .conftest import MALFORMED_SPLITS

N_SHARDS = 3


@pytest.fixture(scope="module")
def small_2d():
    gen = np.random.default_rng(23)
    return SpatialDataset.from_points(gen.uniform(0.0, 100.0, size=(1200, 2)))


@pytest.fixture(scope="module")
def reference_tree(small_2d):
    collectors = [
        ShardCollector(i, N_SHARDS, shard)
        for i, shard in enumerate(shard_dataset(small_2d, N_SHARDS))
    ]
    return FederatedPrivTree(collectors).fit_histogram(1.0, rng=3)


def _collectors(dataset):
    return [
        ShardCollector(i, N_SHARDS, shard)
        for i, shard in enumerate(shard_dataset(dataset, N_SHARDS))
    ]


class TestLoopbackCleanPath:
    def test_bit_identical_to_in_process(self, small_2d, reference_tree):
        clients = loopback_collectors(_collectors(small_2d), session="clean")
        tree = FederatedPrivTree(clients).fit_histogram(1.0, rng=3)
        assert tree_to_dict(tree) == tree_to_dict(reference_tree)

    def test_key_exchange_replaces_derived_masks(self, small_2d, reference_tree):
        # Collectors start with *different* blinding seeds, which would
        # desync immediately — the DH exchange overrides them with agreed
        # pair seeds, so the fit still works and is still bit-identical.
        collectors = [
            ShardCollector(i, N_SHARDS, shard, blinding_seed=100 + i)
            for i, shard in enumerate(shard_dataset(small_2d, N_SHARDS))
        ]
        clients = loopback_collectors(collectors, session="keyed")
        tree = FederatedPrivTree(clients).fit_histogram(1.0, rng=3)
        assert tree_to_dict(tree) == tree_to_dict(reference_tree)

    def test_client_exposes_collector_surface(self, small_2d):
        clients = loopback_collectors(_collectors(small_2d), session="surface")
        client = clients[0]
        assert client.shard_id == 0
        assert client.domain == small_2d.domain
        assert client.dims_per_split == 2
        client.heartbeat()


class TestFailureMatrix:
    """Drops, delays, duplicates, corruption: retried, never wrong."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(drop=0.2, delay_s=0.0),
            FaultPlan(duplicate=0.3, delay_s=0.0),
            FaultPlan(corrupt=0.15, delay_s=0.0),
            FaultPlan(drop=0.15, delay=0.2, duplicate=0.2, corrupt=0.1,
                      delay_s=0.0005),
        ],
        ids=["drops", "duplicates", "corruption", "everything"],
    )
    def test_retriable_faults_keep_bit_identity(
        self, small_2d, reference_tree, plan
    ):
        injector = FaultInjector(plan, seed=17)
        # The loopback injector mutates BOTH directions, so per-attempt
        # failure odds compound; plenty of (cheap, deterministic) retries
        # keep the seeded schedule comfortably inside the budget.
        retry = RetryPolicy(
            attempts=20, timeout_s=0.1, base_backoff_s=1e-4,
            max_backoff_s=1e-3, deadline_s=30.0,
        )
        clients = loopback_collectors(
            _collectors(small_2d), session="matrix", injector=injector,
            retry=retry,
        )
        tree = FederatedPrivTree(clients).fit_histogram(1.0, rng=3)
        assert tree_to_dict(tree) == tree_to_dict(reference_tree)
        assert any(injector.injected.values()), "fault plan never fired"

    def test_killed_collector_aborts_naming_the_shard(self, small_2d):
        injector = FaultInjector(
            FaultPlan(kill_collector_at_round={1: 2}), seed=0
        )
        clients = loopback_collectors(
            _collectors(small_2d), session="kill", injector=injector
        )
        accountant = PrivacyAccountant(1.0)
        with pytest.raises(
            (CollectorCrashError, CollectorTimeoutError), match="shard 1"
        ) as excinfo:
            FederatedPrivTree(clients).fit_histogram(
                1.0, rng=3, accountant=accountant
            )
        assert excinfo.value.shard_id == 1
        assert excinfo.value.round_index == 2
        # aborted round -> transactional rollback, nothing spent
        assert accountant.ledger == []

    def test_duplicated_request_is_served_from_the_round_cache(self, small_2d):
        # Duplicates of a counts_request must NOT advance the mask streams
        # twice — the endpoint replays its cache, keeping all shards in
        # lockstep; bit-identity in the 'duplicates' matrix case above
        # depends on exactly this.
        injector = FaultInjector(FaultPlan(duplicate=1.0, delay_s=0.0), seed=0)
        clients = loopback_collectors(
            _collectors(small_2d), session="dup", injector=injector
        )
        shares = [c.blinded_counts([0]) for c in clients]
        total = np.zeros(1, dtype=np.uint64)
        for share in shares:
            total += share
        assert int(total[0]) == small_2d.n

    def test_replayed_round_with_different_nodes_is_refused(self, small_2d):
        endpoint = CollectorEndpoint(_collectors(small_2d)[0])
        from repro.federated.net import LoopbackChannel, ProtocolClient

        client = ProtocolClient(LoopbackChannel(endpoint), session="replay")
        client.connect()
        client.blinded_counts([0])
        client.sync_round(0)  # rewind, as a resuming coordinator would
        with pytest.raises(RoundMismatchError, match="different node ids"):
            client.blinded_counts([1])

    @pytest.mark.parametrize("case", sorted(MALFORMED_SPLITS))
    def test_malformed_splits_round_leaves_the_collector_untouched(self, case):
        # The endpoint answers a malformed splits round with an error frame
        # (over TCP its handler thread survives), and the same round id with
        # a well-formed list then goes through as if the bad one never came.
        dataset, committed, bad, good = MALFORMED_SPLITS[case]()
        clients = loopback_collectors(
            _collectors(dataset), session=case, exchange=False
        )
        fresh = _collectors(dataset)
        for round_ids in committed:
            for party in clients + fresh:
                party.apply_splits(round_ids)
        for client in clients:
            with pytest.raises(RoundMismatchError, match="names"):
                client.apply_splits(bad)
        # The root and the children of the well-formed round's nodes.
        grown = 1 + 4 * sum(map(len, committed))
        ids = [0, *range(grown, grown + 4 * len(good))]
        for client, collector in zip(clients, fresh):
            client.apply_splits(good)
            collector.apply_splits(good)
            np.testing.assert_array_equal(
                client.blinded_counts(ids), collector.blinded_counts(ids)
            )

    def test_skipping_a_round_is_refused(self, small_2d):
        clients = loopback_collectors(_collectors(small_2d), session="skip")
        client = clients[0]
        client.sync_round(5)
        with pytest.raises(RoundMismatchError, match="round"):
            client.blinded_counts([0])


def _frame(message: dict) -> bytes:
    """``message`` framed as is, envelope included (no version added)."""
    body = json.dumps(message).encode("utf-8")
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


class _Rewrite:
    """An injector that rewrites the frames of some kinds through ``edit``."""

    def __init__(self, kinds, edit):
        self.kinds = kinds
        self.edit = edit

    def on_frame(self, data: bytes) -> list[bytes]:
        message = json.loads(data[8:])
        if message["kind"] in self.kinds:
            self.edit(message)
            data = _frame(message)
        return [data]

    def should_kill_collector(self, shard_id: int, round_index: int) -> bool:
        return False


def _version_1(message: dict) -> None:
    message["version"] = 1


def _counter(name: str) -> float:
    return get_registry().counter(name).value


class TestFrameVersion:
    """A peer on another frame version fails at once: no retry, no corrupt count."""

    @pytest.fixture
    def counters(self):
        names = ("repro_federated_retries_total", "repro_federated_corrupt_frames_total")
        before = [_counter(name) for name in names]
        yield
        assert [_counter(name) for name in names] == before

    @pytest.mark.parametrize(
        "kinds", [{"hello"}, {"hello_ack"}], ids=["request", "response"]
    )
    def test_loopback(self, small_2d, counters, kinds):
        endpoint = CollectorEndpoint(_collectors(small_2d)[0])
        channel = LoopbackChannel(endpoint, injector=_Rewrite(kinds, _version_1))
        client = ProtocolClient(channel, session="v1-peer")
        with pytest.raises(
            FrameVersionError, match="version 1; this side speaks version 2"
        ):
            client.connect()

    def test_tcp_request(self, small_2d, counters):
        endpoint = CollectorEndpoint(_collectors(small_2d)[0])
        server = CollectorServer(("127.0.0.1", 0), endpoint)
        server.serve_in_thread()
        try:
            channel = TcpChannel(
                "127.0.0.1", server.port, injector=_Rewrite({"hello"}, _version_1)
            )
            client = ProtocolClient(channel, session="v1-coordinator")
            with pytest.raises(FrameVersionError, match="version 1") as excinfo:
                client.connect()
            assert excinfo.value.shard_id == 0
            channel.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_tcp_response(self, counters):
        # A collector of the previous release answers every version-2 frame
        # as a corrupt one, in a version-1 frame.
        listener = socket.create_server(("127.0.0.1", 0))

        def serve_one() -> None:
            conn, _ = listener.accept()
            with conn:
                _recv_exactly(conn, struct.unpack(">I", _recv_exactly(conn, 8)[:4])[0])
                conn.sendall(_frame({
                    "format": FRAME_FORMAT, "version": 1, "kind": "error",
                    "error_type": "frame_corrupt", "detail": "unsupported frame version 2",
                    "shard_id": 0, "round": None,
                }))

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        try:
            channel = TcpChannel("127.0.0.1", listener.getsockname()[1])
            client = ProtocolClient(channel, session="v1-collector")
            with pytest.raises(FrameVersionError, match="version 1"):
                client.connect()
            channel.close()
        finally:
            thread.join(timeout=5)
            listener.close()
        assert not thread.is_alive()


class TestMalformedShares:
    @pytest.mark.parametrize(
        "shares", [12, None, ["AAAAAAAAAAA="], "not base64!", "AAAAAAAAAA==", ""],
        ids=["integer", "null", "list", "invalid-base64", "seven-bytes", "empty"],
    )
    def test_is_a_typed_error_naming_the_shard(self, small_2d, shares):
        def tamper(message: dict) -> None:
            message["shares"] = shares

        endpoint = CollectorEndpoint(_collectors(small_2d)[0])
        channel = LoopbackChannel(endpoint, injector=_Rewrite({"counts_response"}, tamper))
        client = ProtocolClient(channel, session="shares")
        client.connect()
        with pytest.raises(ShareShapeError, match="shard 0 round 0") as excinfo:
            client.blinded_counts([0])
        assert (excinfo.value.shard_id, excinfo.value.round_index) == (0, 0)


class TestTcpTransport:
    def test_real_sockets_bit_identical(self, small_2d, reference_tree):
        servers, addresses = [], []
        try:
            for i, shard in enumerate(shard_dataset(small_2d, N_SHARDS)):
                server = CollectorServer(
                    ("127.0.0.1", 0),
                    CollectorEndpoint(ShardCollector(i, N_SHARDS, shard)),
                )
                server.serve_in_thread()
                servers.append(server)
                addresses.append(("127.0.0.1", server.port))
            clients = connect_collectors(addresses, session="tcp-test")
            tree = FederatedPrivTree(clients).fit_histogram(1.0, rng=3)
            for client in clients:
                client.finish()
            assert tree_to_dict(tree) == tree_to_dict(reference_tree)
        finally:
            for server in servers:
                server.shutdown()
                server.server_close()

    def test_reconnect_resumes_the_same_session(self, small_2d):
        shard = shard_dataset(small_2d, N_SHARDS)[0]
        server = CollectorServer(
            ("127.0.0.1", 0),
            CollectorEndpoint(ShardCollector(0, N_SHARDS, shard)),
        )
        server.serve_in_thread()
        try:
            from repro.federated.net import ProtocolClient, TcpChannel

            client = ProtocolClient(
                TcpChannel("127.0.0.1", server.port), session="reconnect"
            )
            client.connect()
            client.channel.close()  # simulate a dropped coordinator socket
            client2 = ProtocolClient(
                TcpChannel("127.0.0.1", server.port), session="reconnect"
            )
            ack = client2.connect()
            assert ack["shard_id"] == 0
            client2.finish()
        finally:
            server.shutdown()
            server.server_close()
