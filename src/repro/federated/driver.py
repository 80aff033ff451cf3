"""The coordinator: PrivTree's level loop fed by aggregated shard counts.

PrivTree's level loop (:func:`repro.core.privtree.grow_frontier`) only ever
consumes *per-node counts* — the split geometry, the eligibility test, and
the child ordering are pure functions of the domain.  That is the whole
trick of the federated fit: the coordinator grows the very array levels
the centralized fit grows (:class:`~repro.spatial.level.BoxLevel`, boxes
only, never a point or a count), with a different score source.  Every
protocol round names its nodes by breadth-first number, so a level's
nodes are one run of consecutive numbers and a round's numbers are an
offset plus level indices.  Each level's exact counts come from one
round of a :class:`~repro.federated.aggregator.SecureAggregator` over
blinded shard shares instead of from an in-memory point set, and each
level commits as one splits round plus a checkpoint write.  The leaf
counts arrive as one last aggregation round and go through the same
release as the centralized pipeline
(:func:`repro.spatial.quadtree._release_leaf_counts`).

Because (a) the aggregated counts are *exact* (blinding is lossless), (b)
eligibility and child order depend only on boxes, and (c) noise is drawn
by the shared code from the coordinator's RNG, the federated release is
**bit-identical** to :func:`repro.spatial.quadtree._privtree_histogram` run
on the concatenation of the shards, for the same seed and parameters.  The
documented stream order is the one in :mod:`repro.core.privtree`: BFS over
splittable nodes, one sized Laplace batch per level, then one batch over
the DFS left-to-right leaves.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.params import PrivTreeParams
from ..core.privtree import DEFAULT_MAX_DEPTH, grow_frontier
from ..domains.box import Box
from ..mechanisms.accountant import PrivacyAccountant
from ..mechanisms.rng import RngLike, SeedLike, ensure_rng
from ..spatial.dataset import SpatialDataset
from ..spatial.histogram_tree import HistogramTree
from ..spatial.level import BoxLevel
from ..spatial.quadtree import _check_fit_params, _release_leaf_counts
from ..telemetry import get_registry, span as _span
from .aggregator import SecureAggregator
from .checkpoint import FitCheckpoint, restore_rng, rng_state
from .collector import ShardCollector, _split_index
from .errors import CheckpointError
from .faults import FaultInjector

__all__ = [
    "FederatedPrivTree",
    "federated_privtree_histogram",
    "replay_splits",
    "shard_dataset",
]

# Always-on beat counter; /metrics- and test-visible without a tracer.
_HEARTBEATS = get_registry().counter(
    "repro_federated_heartbeats_total",
    help="Heartbeat probes the coordinator sent to collectors",
)


def shard_dataset(dataset: SpatialDataset, n_shards: int) -> list[SpatialDataset]:
    """Partition ``dataset`` into ``n_shards`` round-robin shards.

    Every shard keeps the **global** domain (the decomposition geometry must
    be common), only the points are split.  Aggregated counts are invariant
    to which shard holds which point, so any partition yields the same
    federated release; round-robin is merely a deterministic, balanced
    default.
    """
    if n_shards < 2:
        raise ValueError(f"n_shards must be at least 2, got {n_shards}")
    return [
        SpatialDataset(
            points=dataset.points[i::n_shards],
            domain=dataset.domain,
            name=f"{dataset.name}[shard {i}/{n_shards}]",
        )
        for i in range(n_shards)
    ]


class FederatedPrivTree:
    """Coordinator for a sharded PrivTree fit.

    Parameters
    ----------
    collectors:
        The shard workers (≥ 2), all over the same global domain with the
        same ``dims_per_split`` and the same blinding seed.
    aggregator:
        The share summer; a fresh :class:`SecureAggregator` by default.
    """

    def __init__(
        self,
        collectors: Sequence[ShardCollector],
        aggregator: SecureAggregator | None = None,
    ) -> None:
        collectors = list(collectors)
        if len(collectors) < 2:
            raise ValueError(
                f"a federated fit needs at least 2 collectors, got {len(collectors)}"
            )
        first = collectors[0]
        for collector in collectors[1:]:
            if collector.domain != first.domain:
                raise ValueError("collectors disagree on the global domain")
            if collector.dims_per_split != first.dims_per_split:
                raise ValueError("collectors disagree on dims_per_split")
        self.collectors = collectors
        self.heartbeat_interval: float | None = None
        self._last_heartbeat = float("-inf")
        self.aggregator = aggregator or SecureAggregator(len(collectors))
        if self.aggregator.n_shards != len(collectors):
            raise ValueError(
                f"aggregator expects {self.aggregator.n_shards} shards but "
                f"{len(collectors)} collectors are attached"
            )

    @property
    def domain(self) -> Box:
        """The global domain Ω of the decomposition."""
        return self.collectors[0].domain

    @property
    def dims_per_split(self) -> int:
        return self.collectors[0].dims_per_split

    @property
    def fanout(self) -> int:
        return 2 ** self.dims_per_split

    def _aggregate_counts(
        self, node_ids: np.ndarray, *, round_index: int | None = None
    ) -> np.ndarray:
        """One protocol round: exact global counts of the nodes ``node_ids``."""
        with _span(
            "federated.round",
            round=round_index,
            kind="counts",
            n_nodes=len(node_ids),
        ):
            shares = []
            for i, collector in enumerate(self.collectors):
                with _span(
                    "federated.collector",
                    shard_id=getattr(collector, "shard_id", i),
                    round=round_index,
                    op="blinded_counts",
                ):
                    shares.append(collector.blinded_counts(node_ids))
            return self.aggregator.aggregate(
                shares, node_ids=node_ids, round_index=round_index
            )

    def _maybe_heartbeat(self) -> None:
        """Probe collector liveness between rounds.

        Synchronous by design: a beat goes through the same retry engine
        and per-round deadline as any other request, so a stalled
        collector surfaces as the usual ``CollectorTimeoutError`` instead
        of hanging the next aggregation round.  In-process collectors
        have no transport and are skipped.
        """
        interval = self.heartbeat_interval
        if interval is None or interval < 0:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < interval:
            return
        self._last_heartbeat = now
        for i, collector in enumerate(self.collectors):
            beat = getattr(collector, "heartbeat", None)
            if beat is None:
                continue
            with _span(
                "federated.heartbeat",
                shard_id=getattr(collector, "shard_id", i),
            ):
                beat()
            _HEARTBEATS.inc()

    def fit_histogram(
        self,
        epsilon: float,
        *,
        theta: float = 0.0,
        tree_fraction: float = 0.5,
        tuples_per_individual: int = 1,
        count_mechanism: str = "laplace",
        rng: RngLike = None,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        accountant: PrivacyAccountant | None = None,
        label_prefix: str = "privtree",
        checkpoint: FitCheckpoint | None = None,
        resume: bool = False,
        fault_injector: FaultInjector | None = None,
        heartbeat_interval: float | None = None,
    ) -> HistogramTree:
        """The full §3.3–§3.4 pipeline over aggregated shard counts.

        Parameters mirror :func:`~repro.spatial.quadtree._privtree_histogram`
        exactly (``label_prefix`` additionally namespaces the ledger entries,
        e.g. per epoch); the returned tree is bit-identical to running that
        function on the concatenated shard data with the same ``rng``.

        Robustness extensions:

        checkpoint:
            A :class:`~repro.federated.checkpoint.FitCheckpoint`.  When
            given, the coordinator serializes its replay state (pending
            frontier, committed splits, noise-stream position, accountant
            ledger, round log) after every committed round, atomically.
        resume:
            Continue an interrupted fit from ``checkpoint`` instead of
            starting over.  The accountant ledger is *restored*, never
            re-spent, and the noise stream continues from its saved
            position, so the resumed release is bit-identical to an
            uninterrupted fit.  ``rng`` is ignored on resume (the stream
            position comes from the checkpoint) and the passed-in (or
            fresh) ``accountant`` must be unspent.  Remote collectors are
            re-synced to the checkpoint's next round id; fresh in-process
            collectors must first be rebuilt via :func:`replay_splits`.
        fault_injector:
            Hook for the deterministic chaos harness: its
            ``coordinator_tick`` runs after each round's aggregation and
            *before* the commit — the widest crash window — so tests can
            simulate ``kill -9`` at any chosen round.
        heartbeat_interval:
            Seconds between liveness probes to transport-backed collectors
            (``0`` probes before every round; ``None`` disables).  Beats
            ride the normal retry engine, so a stalled collector trips the
            per-round deadline as a ``CollectorTimeoutError`` rather than
            stalling mid-aggregation.  Probes never touch the RNG stream,
            so the release stays bit-identical with or without them.
        """
        _check_fit_params(
            theta, tree_fraction, tuples_per_individual, count_mechanism, max_depth
        )
        self.heartbeat_interval = heartbeat_interval
        self._last_heartbeat = float("-inf")
        config = {
            "epsilon": epsilon,
            "theta": theta,
            "tree_fraction": tree_fraction,
            "tuples_per_individual": tuples_per_individual,
            "count_mechanism": count_mechanism,
            "max_depth": max_depth,
            "dims_per_split": self.dims_per_split,
            "domain": {"low": list(self.domain.low), "high": list(self.domain.high)},
            "label_prefix": label_prefix,
            "n_collectors": len(self.collectors),
        }
        eps_tree = tree_fraction * epsilon
        eps_counts = (1.0 - tree_fraction) * epsilon
        if accountant is None:
            accountant = PrivacyAccountant(epsilon)

        if resume:
            if checkpoint is None:
                raise CheckpointError("resume=True requires a checkpoint")
            state = checkpoint.load()
            if state["config"] != config:
                raise CheckpointError(
                    "checkpoint was written by a fit with different "
                    f"parameters: {state['config']} vs {config}"
                )
            if state["phase"] == "done":
                raise CheckpointError(
                    f"{checkpoint.path} records a completed fit; nothing to resume"
                )
            accountant.restore(
                [(str(label), float(eps)) for label, eps in state["ledger"]]
            )
            for collector in self.collectors:
                sync = getattr(collector, "sync_round", None)
                if sync is not None:
                    sync(int(state["next_round"]))
            return self._run_rounds(
                config, eps_tree, eps_counts, restore_rng(state["rng"]),
                accountant, state, checkpoint, fault_injector,
            )

        gen = ensure_rng(rng)
        # The whole fit is one budget transaction: if any round aborts
        # (collector timeout, crash injection, exhaustion mid-fit), the
        # in-memory ledger rolls back — an aborted fit releases nothing and
        # must spend nothing.  The *checkpoint* ledger persists for resume:
        # a crashed-and-resumed fit restores its spends instead of
        # re-spending them.
        with accountant.transaction():
            accountant.spend(eps_tree, f"{label_prefix}/tree structure")
            accountant.spend(eps_counts, f"{label_prefix}/leaf counts")
            # A fresh fit is a resume from round 0: the root alone.
            state = _fit_state("grow", 0, [0], [], gen, accountant, config, [])
            if checkpoint is not None:
                checkpoint.save(state)
            return self._run_rounds(
                config, eps_tree, eps_counts, gen, accountant, state,
                checkpoint, fault_injector,
            )

    def _run_rounds(
        self,
        config: dict,
        eps_tree: float,
        eps_counts: float,
        gen: np.random.Generator,
        accountant: PrivacyAccountant,
        state: dict,
        checkpoint: FitCheckpoint | None,
        fault_injector: FaultInjector | None,
    ) -> HistogramTree:
        """Algorithm 2 as committed protocol rounds, from a saved ``state``.

        The level loop is :func:`~repro.core.privtree.grow_frontier`.  Its
        score source is one counts round over each level's eligible
        nodes, and its commit is the level's splits round plus one atomic
        checkpoint write.  The leaf release takes its exact counts from
        one last counts round.  The release is written as flat arrays and
        returned as the :class:`HistogramTree` over them.
        """
        split_rounds = list(state["split_rounds"])
        root = _replay_levels(self.domain, self.dims_per_split, split_rounds)
        *_, level = root.levels()
        grown = sum(replayed.size for replayed in root.levels())
        if state["frontier"] != list(range(grown - level.size, grown)):
            raise CheckpointError(
                "checkpoint frontier does not match the level its split log grows"
            )
        next_round = int(state["next_round"])
        round_log = list(state["round_log"])

        def save(phase: str, frontier: list[int]) -> None:
            if checkpoint is not None:
                checkpoint.save(
                    _fit_state(
                        phase, next_round, frontier, split_rounds, gen,
                        accountant, config, round_log,
                    )
                )

        def counts_round(node_ids: np.ndarray) -> np.ndarray:
            nonlocal next_round
            self._maybe_heartbeat()
            exact = self._aggregate_counts(node_ids, round_index=next_round)
            if fault_injector is not None:
                fault_injector.coordinator_tick(next_round)
            round_log.append(
                {"round": next_round, "kind": "counts", "n_nodes": len(node_ids)}
            )
            next_round += 1
            return exact

        # The level handed to either callback is the deepest grown, whose
        # nodes hold the last ``level.size`` of the ``grown`` numbers.
        def scores(level: BoxLevel, eligible: np.ndarray) -> np.ndarray:
            return counts_round(grown - level.size + eligible)

        def commit(level: BoxLevel, split: np.ndarray, next_level: BoxLevel) -> None:
            nonlocal next_round, grown
            to_split = grown - level.size + split
            with _span(
                "federated.round",
                round=next_round,
                kind="splits",
                n_nodes=len(to_split),
            ):
                for i, collector in enumerate(self.collectors):
                    with _span(
                        "federated.collector",
                        shard_id=getattr(collector, "shard_id", i),
                        round=next_round,
                        op="apply_splits",
                    ):
                        collector.apply_splits(to_split)
            round_log.append(
                {"round": next_round, "kind": "splits", "n_nodes": len(to_split)}
            )
            next_round += 1
            split_rounds.append(to_split.tolist())
            grown += next_level.size
            save("grow", list(range(grown - next_level.size, grown)))

        params = PrivTreeParams.calibrate(
            eps_tree,
            fanout=self.fanout,
            sensitivity=float(config["tuples_per_individual"]),
            theta=config["theta"],
        )
        grow_frontier(
            level, params, gen, scores, commit, max_depth=config["max_depth"]
        )
        flat = _release_leaf_counts(
            root, counts_round, eps_counts,
            config["tuples_per_individual"], config["count_mechanism"], gen,
        )
        save("done", [])
        return flat.to_tree()


def _fit_state(
    phase: str,
    next_round: int,
    frontier: list[int],
    split_rounds: list[list[int]],
    gen: np.random.Generator,
    accountant: PrivacyAccountant,
    config: dict,
    round_log: list[dict],
) -> dict:
    """One committed round's complete replay state, JSON-shaped."""
    return {
        "phase": phase,
        "next_round": next_round,
        "frontier": list(frontier),
        "split_rounds": [list(r) for r in split_rounds],
        "rng": rng_state(gen),
        "ledger": [[label, eps] for label, eps in accountant.ledger],
        "config": config,
        "round_log": list(round_log),
    }


def _replay_levels(
    domain: Box,
    dims_per_split: int,
    split_rounds: list[list[int]],
) -> BoxLevel:
    """Replay committed split decisions into the coordinator's levels.

    Node numbers follow from the split decisions and splitting is pure
    geometry, so the committed per-level split lists are a complete record
    of the tree grown so far: bisecting each recorded level's nodes
    reproduces every box exactly.  Returns the root level, with every
    replayed level linked below it.
    """
    level = root = BoxLevel.root(domain, dims_per_split)
    grown = 1
    for round_numbers in split_rounds:
        try:
            index = _split_index(level, grown, round_numbers)
        except KeyError as exc:
            raise CheckpointError(f"checkpoint split log {exc.args[0]}") from None
        level = level.split(index)
        grown += level.size
    return root


def replay_splits(
    collectors: Sequence[ShardCollector], split_rounds: list[list[int]]
) -> None:
    """Replay committed splits onto *fresh* in-process collectors.

    An in-process resume rebuilds its collectors from the shard data, so
    their levels and point labels must be grown back to the checkpointed
    frontier before the fit continues.  Each committed round (the node
    numbers it split) is applied once, in order; splitting is pure
    geometry, so the replayed collectors match the pre-crash ones exactly.
    The TCP transport never needs this: its collectors are long-lived
    processes that kept their levels (and their mask-stream positions).
    A round the collectors refuse (an unknown number, a repeat, a round
    out of order) raises :class:`CheckpointError`.
    """
    for round_numbers in split_rounds:
        for collector in collectors:
            try:
                collector.apply_splits(round_numbers)
            except KeyError as exc:
                raise CheckpointError(f"checkpoint split log: {exc.args[0]}") from None


def federated_privtree_histogram(
    shards: Sequence[SpatialDataset],
    epsilon: float,
    *,
    dims_per_split: int | None = None,
    theta: float = 0.0,
    tree_fraction: float = 0.5,
    tuples_per_individual: int = 1,
    count_mechanism: str = "laplace",
    rng: RngLike = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    accountant: PrivacyAccountant | None = None,
    blinding_seed: SeedLike = 0,
    label_prefix: str = "privtree",
) -> HistogramTree:
    """Fit PrivTree over ``shards`` without any party seeing the raw counts.

    Convenience wrapper: builds one in-process
    :class:`~repro.federated.collector.ShardCollector` per shard dataset
    (all over their common domain), wires them to a
    :class:`SecureAggregator`, and runs :meth:`FederatedPrivTree.
    fit_histogram`.  The result is bit-identical to the centralized
    ``privtree`` fit on the concatenated shard points under the same seed.
    """
    shards = list(shards)
    collectors = [
        ShardCollector(
            i,
            len(shards),
            shard,
            blinding_seed=blinding_seed,
            dims_per_split=dims_per_split,
        )
        for i, shard in enumerate(shards)
    ]
    driver = FederatedPrivTree(collectors)
    return driver.fit_histogram(
        epsilon,
        theta=theta,
        tree_fraction=tree_fraction,
        tuples_per_individual=tuples_per_individual,
        count_mechanism=count_mechanism,
        rng=rng,
        max_depth=max_depth,
        accountant=accountant,
        label_prefix=label_prefix,
    )
