"""Tests for the transport stack: endpoint, channels, retry, failure matrix.

The loopback channel runs the *identical* client logic and frames as the
TCP path (same encode/decode, same endpoint, same retry engine) at memory
speed, so the whole failure matrix lives in tier-1.  One test drives real
sockets to pin the TCP glue itself.
"""

import numpy as np
import pytest

from repro.federated import (
    ROOT_NODE_ID,
    CollectorCrashError,
    CollectorTimeoutError,
    FaultInjector,
    FaultPlan,
    FederatedPrivTree,
    RoundMismatchError,
    ShardCollector,
    child_node_id,
    connect_collectors,
    loopback_collectors,
    shard_dataset,
)
from repro.federated.net import CollectorEndpoint, CollectorServer
from repro.federated.transport import RetryPolicy
from repro.mechanisms import PrivacyAccountant
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
        shares = [c.blinded_counts(["v1"]) for c in clients]
        total = np.zeros(1, dtype=np.uint64)
        for share in shares:
            total += share
        assert int(total[0]) == small_2d.n

    def test_replayed_round_with_different_nodes_is_refused(self, small_2d):
        endpoint = CollectorEndpoint(_collectors(small_2d)[0])
        from repro.federated.net import LoopbackChannel, ProtocolClient

        client = ProtocolClient(LoopbackChannel(endpoint), session="replay")
        client.connect()
        client.blinded_counts(["v1"])
        client.sync_round(0)  # rewind, as a resuming coordinator would
        with pytest.raises(RoundMismatchError, match="different node ids"):
            client.blinded_counts(["v1.0"])

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
        ids = [ROOT_NODE_ID] + [child_node_id(p, j) for p in good for j in range(4)]
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
            client.blinded_counts(["v1"])


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
