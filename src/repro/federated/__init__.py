"""Federated private aggregation: sharded PrivTree fits, continual release.

The "millions of users" deployment story: users live on different data
collectors and the curator never holds raw points.  PrivTree's frontier
only ever consumes per-node counts, so the fit factors cleanly into three
parties borrowed from PrivCount's architecture:

* :class:`ShardCollector` — holds one partition of the data, mirrors the
  coordinator's splits on its deepest array level, counts its points as
  the centralized fit does (one cell histogram for the shallow levels,
  one int32 label per point below them), and answers per-node count
  queries with **additively blinded** ``uint64`` shares
  (pairwise-cancelling mask streams, :mod:`repro.federated.blinding`);
* :class:`SecureAggregator` — sums the shares; masks telescope away,
  recovering exact global counts without any party seeing a raw per-shard
  histogram;
* :class:`FederatedPrivTree` — the coordinator: runs the engine's own
  level loop with aggregated counts as its score source, drawing one
  Laplace batch per level (and one over the leaves) from its own RNG so
  the federated release is **bit-identical** to the single-machine fit on
  the concatenated data under the same seed.

:class:`EpochLedger` extends this to continual observation: sliding-window
re-fits over epoch-stamped shard data, budget composition across epochs
through one shared :class:`~repro.mechanisms.PrivacyAccountant`, and one
stored artifact per epoch in a :class:`~repro.serve.ReleaseStore` so the
serve layer answers "as of epoch t" queries.

The fault-tolerance layer takes the fit out of process:
:mod:`~repro.federated.transport` (length-prefixed frames, retry policy,
Diffie-Hellman pair seeds), :mod:`~repro.federated.net` (the TCP
:class:`CollectorServer` / :class:`ProtocolClient` pair plus an in-process
:class:`LoopbackChannel` with identical semantics),
:mod:`~repro.federated.checkpoint` (crash-safe resume with zero budget
double-spend), :mod:`~repro.federated.errors` (typed protocol failures),
and :mod:`~repro.federated.faults` (the deterministic chaos harness).

Example — three in-process collectors, one private release::

    from repro.datasets import gowallalike
    from repro.federated import federated_privtree_histogram, shard_dataset

    data = gowallalike(30_000, rng=0)
    tree = federated_privtree_histogram(shard_dataset(data, 3), epsilon=1.0, rng=0)
    # bit-identical to privtree fit on `data` with rng=0
"""

from .aggregator import SecureAggregator
from .blinding import MASK_DTYPE, PairwiseBlinder, pair_index
from .checkpoint import FitCheckpoint
from .collector import ShardCollector
from .driver import (
    FederatedPrivTree,
    federated_privtree_histogram,
    replay_splits,
    shard_dataset,
)
from .errors import (
    CheckpointError,
    CollectorCrashError,
    CollectorTimeoutError,
    FederatedProtocolError,
    FrameCorruptError,
    FrameVersionError,
    InjectedCoordinatorCrash,
    KeyExchangeError,
    RoundMismatchError,
    ShardDesyncError,
    ShareShapeError,
)
from .faults import FaultInjector, FaultPlan
from .ledger import EpochLedger, EpochRecord
from .net import (
    CollectorEndpoint,
    CollectorServer,
    LoopbackChannel,
    ProtocolClient,
    connect_collectors,
    loopback_collectors,
)
from .transport import RetryPolicy

__all__ = [
    "CheckpointError",
    "CollectorCrashError",
    "CollectorEndpoint",
    "CollectorServer",
    "CollectorTimeoutError",
    "EpochLedger",
    "EpochRecord",
    "FaultInjector",
    "FaultPlan",
    "FederatedPrivTree",
    "FederatedProtocolError",
    "FitCheckpoint",
    "FrameCorruptError",
    "FrameVersionError",
    "InjectedCoordinatorCrash",
    "KeyExchangeError",
    "LoopbackChannel",
    "MASK_DTYPE",
    "PairwiseBlinder",
    "ProtocolClient",
    "RetryPolicy",
    "RoundMismatchError",
    "SecureAggregator",
    "ShardCollector",
    "ShardDesyncError",
    "ShareShapeError",
    "connect_collectors",
    "federated_privtree_histogram",
    "loopback_collectors",
    "pair_index",
    "replay_splits",
    "shard_dataset",
]
