"""Tests for crash-safe checkpointing and bit-identical resume."""

import json

import numpy as np
import pytest

from repro.federated import (
    FaultInjector,
    FaultPlan,
    FederatedPrivTree,
    FitCheckpoint,
    InjectedCoordinatorCrash,
    ShardCollector,
    replay_splits,
    shard_dataset,
)
from repro.federated.checkpoint import restore_rng, rng_state
from repro.federated.errors import CheckpointError
from repro.mechanisms import PrivacyAccountant
from repro.spatial import SpatialDataset
from repro.spatial.serialize import tree_to_dict

N_SHARDS = 3


@pytest.fixture(scope="module")
def small_2d():
    gen = np.random.default_rng(11)
    return SpatialDataset.from_points(gen.uniform(0.0, 100.0, size=(1200, 2)))


def _collectors(dataset):
    return [
        ShardCollector(i, N_SHARDS, shard)
        for i, shard in enumerate(shard_dataset(dataset, N_SHARDS))
    ]


def _fit(dataset, **kwargs):
    return FederatedPrivTree(_collectors(dataset)).fit_histogram(
        1.0, rng=5, **kwargs
    )


class TestRngState:
    def test_roundtrip_resumes_the_stream(self):
        gen = np.random.default_rng(7)
        gen.standard_normal(100)
        state = json.loads(json.dumps(rng_state(gen)))  # survives JSON
        resumed = restore_rng(state)
        assert np.array_equal(gen.standard_normal(50), resumed.standard_normal(50))

    def test_unknown_bit_generator_is_typed(self):
        with pytest.raises(CheckpointError, match="bit generator"):
            restore_rng({"name": "NotAGenerator", "state": {}})


class TestFitCheckpoint:
    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            FitCheckpoint(tmp_path / "absent.json").load()

    def test_garbage_file_is_typed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            FitCheckpoint(path).load()

    @pytest.mark.parametrize(
        "document", [{"format": "something.else", "version": 1}, [], "text", 3]
    )
    def test_wrong_format_is_typed(self, document, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="not a federated fit"):
            FitCheckpoint(path).load()

    def test_save_refuses_incomplete_state(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing keys"):
            FitCheckpoint(tmp_path / "x.json").save({"phase": "grow"})


def _first_of_last_round(value):
    """A tamper that puts ``value`` first in the split log's last round."""
    return lambda state: state["split_rounds"][-1].__setitem__(0, value)


class TestCheckpointedFit:
    def test_checkpointing_does_not_change_the_release(self, small_2d, tmp_path):
        plain = _fit(small_2d)
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        checked = _fit(small_2d, checkpoint=checkpoint)
        assert tree_to_dict(checked) == tree_to_dict(plain)
        state = checkpoint.load()
        assert state["phase"] == "done"
        assert [label for label, _ in state["ledger"]] == [
            "privtree/tree structure",
            "privtree/leaf counts",
        ]

    def test_round_log_commits_each_round_once(self, small_2d, tmp_path):
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        _fit(small_2d, checkpoint=checkpoint)
        rounds = [entry["round"] for entry in checkpoint.load()["round_log"]]
        assert rounds == sorted(rounds)
        assert len(rounds) == len(set(rounds))

    @pytest.mark.parametrize("crash_round", [0, 2, 6])
    def test_crash_resume_is_bit_identical_with_one_spend(
        self, small_2d, tmp_path, crash_round
    ):
        plain = _fit(small_2d)
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        crasher = FaultInjector(
            FaultPlan(crash_coordinator_at_round=crash_round), seed=0
        )
        first = PrivacyAccountant(1.0)
        with pytest.raises(InjectedCoordinatorCrash):
            _fit(
                small_2d,
                checkpoint=checkpoint,
                accountant=first,
                fault_injector=crasher,
            )
        # the aborted coordinator's in-memory ledger rolled back ...
        assert first.ledger == []
        # ... but the committed spends survive in the checkpoint.
        state = checkpoint.load()
        assert len(state["ledger"]) == 2

        collectors = _collectors(small_2d)
        replay_splits(collectors, state["split_rounds"])
        resumed_accountant = PrivacyAccountant(1.0)
        resumed = FederatedPrivTree(collectors).fit_histogram(
            1.0,
            rng=5,
            checkpoint=checkpoint,
            accountant=resumed_accountant,
            resume=True,
        )
        assert tree_to_dict(resumed) == tree_to_dict(plain)
        assert [label for label, _ in resumed_accountant.ledger] == [
            "privtree/tree structure",
            "privtree/leaf counts",
        ]
        assert resumed_accountant.spent == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda s: s["split_rounds"][-1].append(s["split_rounds"][-1][0]), "twice"),
            (_first_of_last_round(10**6), "unknown node 1000000"),
            (lambda s: s["frontier"].pop(), "does not match"),
            (_first_of_last_round("v1.9"), "split log names 'v1.9'"),
            (_first_of_last_round(True), "split log names True"),
            (_first_of_last_round(1.0), "split log names 1.0"),
            (_first_of_last_round(-1), "unknown node -1"),
            (_first_of_last_round(2**63), "past int64"),
            (lambda s: s["split_rounds"][-1].reverse(), "out of order"),
            (lambda s: s["split_rounds"].__setitem__(-1, "1,2"), "split log must be a list"),
            (lambda s: s["split_rounds"].__setitem__(0, [0, 0]), "twice"),
            (lambda s: s["frontier"].__setitem__(0, "v1.0"), "frontier names 'v1.0'"),
            (lambda s: s["frontier"].__setitem__(0, False), "frontier names False"),
            (lambda s: s["frontier"].__setitem__(0, -1), "does not match"),
            (lambda s: s["frontier"].reverse(), "does not match"),
            (lambda s: s.__setitem__("split_rounds", {}), "split log must be a list"),
            (lambda s: s.__setitem__("version", 1), "version 1 .*reads version 2"),
        ],
        ids=[
            "split-twice", "unknown-node", "frontier-mismatch", "string", "bool",
            "float", "negative", "past-int64", "out-of-order", "round-not-a-list",
            "root-twice", "frontier-string", "frontier-bool", "frontier-negative",
            "frontier-out-of-order", "log-not-a-list", "version-1",
        ],
    )
    def test_tampered_split_log_is_refused(self, small_2d, tmp_path, tamper, message):
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        crasher = FaultInjector(FaultPlan(crash_coordinator_at_round=6), seed=0)
        with pytest.raises(InjectedCoordinatorCrash):
            _fit(small_2d, checkpoint=checkpoint, fault_injector=crasher)
        state = checkpoint.load()
        tamper(state)
        checkpoint.save(state)
        with pytest.raises(CheckpointError, match=message):
            _fit(small_2d, checkpoint=checkpoint, resume=True)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda s: s["split_rounds"][-1].append(s["split_rounds"][-1][0]), "twice"),
            (_first_of_last_round(10**6), "unknown node 1000000"),
            (_first_of_last_round(-1), "unknown node -1"),
            (lambda s: s["split_rounds"][-1].reverse(), "out of order"),
            (lambda s: s["split_rounds"].__setitem__(0, [0, 0]), "twice"),
        ],
        ids=["split-twice", "unknown-node", "negative", "out-of-order", "root-twice"],
    )
    def test_replay_refuses_a_tampered_split_log(
        self, small_2d, tmp_path, tamper, message
    ):
        # An in-process resume replays the split log onto fresh collectors
        # before the fit reads it; a round they refuse is a CheckpointError.
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        crasher = FaultInjector(FaultPlan(crash_coordinator_at_round=6), seed=0)
        with pytest.raises(InjectedCoordinatorCrash):
            _fit(small_2d, checkpoint=checkpoint, fault_injector=crasher)
        state = checkpoint.load()
        tamper(state)
        with pytest.raises(CheckpointError, match=f"checkpoint split log: .*{message}"):
            replay_splits(_collectors(small_2d), state["split_rounds"])

    def test_resume_requires_a_checkpoint(self, small_2d):
        with pytest.raises(CheckpointError, match="requires a checkpoint"):
            _fit(small_2d, resume=True)

    def test_resume_of_a_finished_fit_is_refused(self, small_2d, tmp_path):
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        _fit(small_2d, checkpoint=checkpoint)
        with pytest.raises(CheckpointError, match="completed fit"):
            _fit(small_2d, checkpoint=checkpoint, resume=True)

    def test_resume_with_different_parameters_is_refused(
        self, small_2d, tmp_path
    ):
        checkpoint = FitCheckpoint(tmp_path / "fit.json")
        crasher = FaultInjector(FaultPlan(crash_coordinator_at_round=0), seed=0)
        with pytest.raises(InjectedCoordinatorCrash):
            _fit(small_2d, checkpoint=checkpoint, fault_injector=crasher)
        with pytest.raises(CheckpointError, match="different"):
            FederatedPrivTree(_collectors(small_2d)).fit_histogram(
                2.0, rng=5, checkpoint=checkpoint, resume=True
            )


class TestTransactionalAccountant:
    def test_restore_replays_a_committed_ledger(self):
        accountant = PrivacyAccountant(1.0)
        accountant.restore([("a", 0.25), ("b", 0.5)])
        assert accountant.ledger == [("a", 0.25), ("b", 0.5)]
        assert accountant.remaining == pytest.approx(0.25)

    def test_restore_refuses_a_dirty_accountant(self):
        accountant = PrivacyAccountant(1.0)
        accountant.spend(0.1, "live")
        with pytest.raises(RuntimeError, match="fresh"):
            accountant.restore([("a", 0.25)])

    def test_restore_over_budget_rolls_back_entirely(self):
        accountant = PrivacyAccountant(1.0)
        with pytest.raises(Exception):
            accountant.restore([("a", 0.8), ("b", 0.8)])
        assert accountant.ledger == []
