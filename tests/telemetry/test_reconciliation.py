"""The acceptance contract: traces reconcile with the fit's own records.

A federated fit over the TCP transport, run with tracing and a
checkpoint, must produce a trace whose per-round spans match the
checkpoint's round log entry for entry, and whose accountant events
match the privacy ledger 1:1.  The heartbeat satellite rides here too:
probes are counted, never touch the RNG stream, and a stalled collector
trips the per-round deadline instead of hanging the fit.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.federated import (
    CollectorTimeoutError,
    FederatedPrivTree,
    ShardCollector,
    connect_collectors,
    loopback_collectors,
    shard_dataset,
)
from repro.federated.checkpoint import FitCheckpoint
from repro.federated.net import CollectorEndpoint, CollectorServer
from repro.federated.transport import RetryPolicy
from repro.mechanisms import PrivacyAccountant
from repro.spatial import SpatialDataset
from repro.spatial.quadtree import _privtree_histogram
from repro.spatial.serialize import tree_to_dict
from repro.telemetry import get_registry

N_SHARDS = 2


@pytest.fixture()
def small_2d():
    gen = np.random.default_rng(41)
    return SpatialDataset.from_points(gen.uniform(0.0, 50.0, size=(800, 2)))


def _collectors(dataset):
    return [
        ShardCollector(i, N_SHARDS, shard)
        for i, shard in enumerate(shard_dataset(dataset, N_SHARDS))
    ]


def _levels(records):
    """``(depth, frontier, eligible, split)`` of each ``privtree.level`` span."""
    return [
        tuple(r.attrs[key] for key in ("depth", "frontier", "eligible", "split"))
        for r in records
        if r.name == "privtree.level"
    ]


class TestTraceReconciliation:
    def test_tcp_fit_trace_reconciles_with_round_log_and_ledger(
        self, small_2d, tmp_path
    ):
        tracer = telemetry.enable()
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        accountant = PrivacyAccountant(1.0)
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
            clients = connect_collectors(addresses, session="trace-acceptance")
            driver = FederatedPrivTree(clients)
            driver.fit_histogram(
                1.0,
                rng=3,
                accountant=accountant,
                checkpoint=checkpoint,
                heartbeat_interval=0.0,
            )
            for client in clients:
                client.finish()
        finally:
            telemetry.disable()
            for server in servers:
                server.shutdown()
                server.server_close()

        records = tracer.records
        state = checkpoint.load()
        assert state["phase"] == "done"

        # Per-round spans reconcile with the checkpoint's round log,
        # entry for entry: same rounds, same kinds, same node counts.
        round_spans = [r for r in records if r.name == "federated.round"]
        traced = sorted(
            (r.attrs["round"], r.attrs["kind"], r.attrs["n_nodes"])
            for r in round_spans
        )
        logged = sorted(
            (entry["round"], entry["kind"], entry["n_nodes"])
            for entry in state["round_log"]
        )
        assert traced == logged

        # Accountant events reconcile with the privacy ledger 1:1.
        spends = [r for r in records if r.name == "accountant.spend"]
        assert [
            (r.attrs["label"], r.attrs["epsilon"]) for r in spends
        ] == list(accountant.ledger)
        assert [
            [label, eps] for label, eps in accountant.ledger
        ] == state["ledger"]

        # Per-collector spans: every counts round touched every shard.
        collector_spans = [r for r in records if r.name == "federated.collector"]
        counts_rounds = {
            entry["round"] for entry in state["round_log"]
            if entry["kind"] == "counts"
        }
        for round_index in counts_rounds:
            shards = {
                r.attrs["shard_id"]
                for r in collector_spans
                if r.attrs["round"] == round_index
                and r.attrs["op"] == "blinded_counts"
            }
            assert shards == set(range(N_SHARDS))

        # Heartbeats ran (interval 0 probes before every round) and were
        # both traced and counted.
        beats = [r for r in records if r.name == "federated.heartbeat"]
        assert beats
        assert {r.attrs["shard_id"] for r in beats} == set(range(N_SHARDS))

    def test_trace_captures_no_raw_data(self, small_2d):
        """No span attribute may carry points, counts, or shares."""
        tracer = telemetry.enable()
        clients = loopback_collectors(
            _collectors(small_2d), session="privacy-sweep"
        )
        FederatedPrivTree(clients).fit_histogram(1.0, rng=3)
        telemetry.disable()
        allowed = {
            "privtree.level": {"depth", "frontier", "eligible", "split"},
            "federated.round": {"round", "kind", "n_nodes"},
            "federated.collector": {"shard_id", "round", "op"},
            "federated.heartbeat": {"shard_id"},
            "accountant.spend": {"label", "epsilon"},
            "accountant.rollback": {"n_entries"},
        }
        for record in tracer.records:
            if record.name in allowed:
                assert set(record.attrs) <= allowed[record.name], record.name

        # The coordinator runs the engine's own level loop: its levels
        # trace exactly like a centralized fit on the same points and seed.
        central_tracer = telemetry.enable()
        _privtree_histogram(small_2d, 1.0, rng=3)
        telemetry.disable()
        assert _levels(tracer.records)
        assert _levels(tracer.records) == _levels(central_tracer.records)


class TestHeartbeat:
    def test_heartbeats_are_counted_and_preserve_bit_identity(self, small_2d):
        reference = FederatedPrivTree(_collectors(small_2d)).fit_histogram(
            1.0, rng=3
        )
        beats = get_registry().counter("repro_federated_heartbeats_total")
        before = beats.value
        clients = loopback_collectors(_collectors(small_2d), session="beats")
        tree = FederatedPrivTree(clients).fit_histogram(
            1.0, rng=3, heartbeat_interval=0.0
        )
        assert beats.value > before
        # Probes never touch the coordinator's RNG stream.
        assert tree_to_dict(tree) == tree_to_dict(reference)

    def test_in_process_collectors_are_skipped(self, small_2d):
        beats = get_registry().counter("repro_federated_heartbeats_total")
        before = beats.value
        driver = FederatedPrivTree(_collectors(small_2d))
        driver.fit_histogram(1.0, rng=3, heartbeat_interval=0.0)
        # ShardCollector has no transport, hence no heartbeat surface.
        assert beats.value == before

    def test_none_or_negative_interval_disables_probing(self, small_2d):
        beats = get_registry().counter("repro_federated_heartbeats_total")
        before = beats.value
        clients = loopback_collectors(_collectors(small_2d), session="off")
        FederatedPrivTree(clients).fit_histogram(1.0, rng=3)
        FederatedPrivTree(clients2 := loopback_collectors(
            _collectors(small_2d), session="neg"
        )).fit_histogram(1.0, rng=3, heartbeat_interval=-1.0)
        del clients, clients2
        assert beats.value == before

    def test_stalled_collector_trips_the_round_deadline(self, small_2d):
        """Satellite 2: a collector that stops answering heartbeats must
        surface as the usual typed timeout, with nothing spent."""
        retry = RetryPolicy(
            attempts=2, timeout_s=0.01, base_backoff_s=1e-4,
            max_backoff_s=1e-3, deadline_s=0.25,
        )
        clients = loopback_collectors(
            _collectors(small_2d), session="stall", retry=retry
        )
        victim = clients[1]
        original_send = victim.channel.send

        def swallowing_send(frame, round_index=None):
            # The collector never sees the probe: frames are plaintext
            # JSON, so the heartbeat kind is visible in the raw bytes.
            if b'"kind":"heartbeat"' in frame:
                return
            original_send(frame, round_index=round_index)

        victim.channel.send = swallowing_send
        accountant = PrivacyAccountant(1.0)
        driver = FederatedPrivTree(clients)
        with pytest.raises(CollectorTimeoutError, match="heartbeat") as excinfo:
            driver.fit_histogram(
                1.0, rng=3, accountant=accountant, heartbeat_interval=0.0
            )
        assert excinfo.value.shard_id == 1
        # The aborted fit rolled its budget back.
        assert accountant.ledger == []
