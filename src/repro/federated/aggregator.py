"""The tally side of the protocol: sum blinded shares, recover exact counts.

PrivCount splits this role between share keepers and a tally server; with
pairwise blinding the algebra collapses into one step — add every shard's
``uint64`` share vector modulo ``2^64`` and the masks telescope away,
leaving the exact global per-node counts.  The aggregator sees only blinded
vectors (each one uniformly distributed on its own), never a raw per-shard
histogram.

Every validation failure is a typed
:class:`~repro.federated.errors.FederatedProtocolError` naming the
offending shard, the round, and the expected-vs-got values — an operator
debugging a desynced deployment needs to know *which* shard to restart,
not just that the sum was garbage.  (The typed errors also subclass
``ValueError`` so pre-existing callers keep working.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .blinding import MASK_DTYPE
from .errors import ShardDesyncError, ShareShapeError

__all__ = ["SecureAggregator"]

#: Counts at or above 2^63 cannot be told apart from mask-cancellation
#: failures (and don't fit the signed dtype the engines use).
_MAX_COUNT = np.uint64(1) << np.uint64(63)


class SecureAggregator:
    """Sums pairwise-blinded share vectors into exact global counts.

    Parameters
    ----------
    n_shards:
        Number of shards that must report each round; a round with a
        missing or extra report fails loudly (an incomplete sum would be
        garbage, not an approximation — the masks only cancel when every
        pair member contributes).
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 2:
            raise ValueError(f"need at least 2 shards to aggregate, got {n_shards}")
        self.n_shards = n_shards
        self.rounds = 0

    def aggregate(
        self,
        shares: Sequence[np.ndarray],
        *,
        node_ids: Sequence[int] | None = None,
        round_index: int | None = None,
    ) -> np.ndarray:
        """Exact global counts from one round of blinded shares.

        ``shares`` holds one ``uint64`` vector per shard, all the same
        length (one entry per queried node).  ``node_ids`` (when given)
        pins the expected vector length to the queried node list, and
        ``round_index`` labels errors with the protocol round; neither
        affects the arithmetic.  Returns the recovered counts as
        ``int64``.
        """
        rnd = self.rounds if round_index is None else round_index
        if len(shares) != self.n_shards:
            raise ShareShapeError(
                f"round {rnd}: expected shares from {self.n_shards} shards, "
                f"got {len(shares)}",
                round_index=rnd,
            )
        arrays = [np.asarray(s) for s in shares]
        length = len(node_ids) if node_ids is not None else (
            arrays[0].shape[0] if arrays else 0
        )
        for i, arr in enumerate(arrays):
            if arr.dtype != MASK_DTYPE or arr.ndim != 1:
                raise ShareShapeError(
                    f"round {rnd}: shard {i} reported dtype "
                    f"{arr.dtype}/{arr.ndim}-d shares; expected a 1-d "
                    "uint64 vector",
                    shard_id=i,
                    round_index=rnd,
                )
            if arr.shape[0] != length:
                expected_from = (
                    f"{length} queried nodes" if node_ids is not None
                    else f"shard 0's {length}"
                )
                raise ShareShapeError(
                    f"round {rnd}: shard {i} reported {arr.shape[0]} shares "
                    f"but {expected_from} were expected; rounds must be aligned",
                    shard_id=i,
                    round_index=rnd,
                )
        total = np.zeros(length, dtype=MASK_DTYPE)
        for arr in arrays:
            total += arr  # wraps mod 2^64: the ring addition of the scheme
        if length and total.max() >= _MAX_COUNT:
            worst = int(np.argmax(total))
            at = (
                f" at node {int(node_ids[worst])}" if node_ids is not None else ""
            )
            raise ShardDesyncError(
                f"round {rnd}: aggregated count {int(total[worst])}{at} is "
                ">= 2^63: mask streams out of sync (a shard skipped a round, "
                "replayed one, or used a different blinding seed); "
                "the round was aborted, nothing was released",
                round_index=rnd,
            )
        self.rounds += 1
        return total.astype(np.int64)
