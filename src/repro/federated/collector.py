"""The shard-side party of a federated fit: one partition, blinded counts.

A :class:`ShardCollector` plays PrivCount's *data collector* role.  It holds
one shard of the sensitive points (over the **global** domain, so every
shard's decomposition geometry matches the coordinator's) and counts them
the way the centralized fit does (:class:`~repro.spatial.level.PointLabels`:
one cell histogram of its points for the shallow levels, one int32 node
label per point below them), advanced level by level as it mirrors the
coordinator's split decisions on its deepest
:class:`~repro.spatial.level.BoxLevel`.  It answers per-node count queries
by emitting additively blinded ``uint64`` shares.  The raw per-shard counts
never leave the collector: every emitted vector is blinded by the pairwise
masks of :class:`~repro.federated.blinding.PairwiseBlinder`, so only the
sum across *all* shards — taken by the
:class:`~repro.federated.aggregator.SecureAggregator` — is meaningful.

Every party names a node by its breadth-first number: the root is 0,
and a split level's children take the next numbers, child ``j`` of the
``r``-th split node at ``first + r·β + j``.  The numbers are pure
geometry, so every party derives the same number for the same sub-box
from the split decisions alone, and a number indexes the concatenated
per-level counts directly; the deepest level's nodes hold the last
numbers.  A splits round must name distinct splittable nodes of the
deepest level in ascending order (:func:`_split_index`, which the
coordinator's checkpoint replay shares).

The collector is deliberately dumb about privacy: it adds no noise and
knows nothing about ε.  All noise is drawn once, at the coordinator, from
the aggregated exact counts — exactly where the single-machine engine draws
it — which is what makes the federated release bit-identical to the
centralized one.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..domains.box import Box
from ..mechanisms.rng import SeedLike
from ..spatial.dataset import SpatialDataset
from ..spatial.level import BoxLevel, PointLabels
from .blinding import PairwiseBlinder

__all__ = ["ShardCollector"]


def _unknown(numbers: np.ndarray, grown: int) -> int | None:
    """The first of ``numbers`` outside ``[0, grown)``, or ``None``."""
    outside = (numbers < 0) | (numbers >= grown)
    return int(numbers[outside][0]) if outside.any() else None


def _split_index(level: BoxLevel, grown: int, numbers: np.ndarray) -> np.ndarray:
    """The indices in ``level`` of the nodes one splits round names.

    ``grown`` nodes are numbered, and ``level``, the deepest, holds the
    last ``level.size`` of them in level order.  The numbers must name
    splittable nodes of ``level``, each once, in ascending order;
    anything else raises ``KeyError`` naming the fault.
    """
    numbers = np.asarray(numbers, dtype=np.intp)
    unknown = _unknown(numbers, grown)
    if unknown is not None:
        raise KeyError(
            f"names unknown node {unknown} (split a node before naming its "
            "children)"
        )
    index = numbers - (grown - level.size)
    if index.size and (
        index[0] < 0
        or np.any(np.diff(index) <= 0)
        or not level.splittable()[index].all()
    ):
        raise KeyError(
            "names a node twice, out of order, outside the deepest level, or "
            "past float resolution"
        )
    return index


class ShardCollector:
    """One shard's worker: array levels + blinded count answers.

    Parameters
    ----------
    shard_id, n_shards:
        This collector's index and the total shard count (≥ 2).
    dataset:
        The shard's points.  ``dataset.domain`` must be the *global* domain
        Ω shared by all shards — the split geometry is derived from it.
    blinding_seed:
        Root seed of the pairwise mask streams; common to all collectors of
        one aggregation (see :mod:`repro.federated.blinding`).
    dims_per_split:
        Dimensions bisected per split, as in the centralized engine.
    """

    def __init__(
        self,
        shard_id: int,
        n_shards: int,
        dataset: SpatialDataset,
        *,
        blinding_seed: SeedLike = 0,
        dims_per_split: int | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.n_shards = n_shards
        self._blinder = PairwiseBlinder(shard_id, n_shards, blinding_seed)
        self._level = BoxLevel.root(dataset.domain, dims_per_split)
        self._labels = PointLabels(dataset.points)
        self._grown = 1  # nodes numbered so far; the root is 0
        self._domain = dataset.domain
        self._n_points = dataset.n
        self._rounds_served = 0

    @property
    def domain(self) -> Box:
        """The global domain this shard's decomposition runs over."""
        return self._domain

    @property
    def n_points(self) -> int:
        """Number of points held by this shard (not privacy-sensitive here:
        the coordinator learns the exact global total anyway via the root
        count, and shard sizes are deployment metadata)."""
        return self._n_points

    @property
    def dims_per_split(self) -> int:
        """Dimensions bisected per split (fanout β = 2^dims_per_split)."""
        return self._level.dims_per_split

    def rekey(self, pair_seeds: Mapping[tuple[int, int], int]) -> None:
        """Replace the derived-stream blinder with key-exchange pair seeds.

        Called once after the transport's Diffie-Hellman exchange, before
        the first counts round; the aggregate is unchanged (masks cancel
        for any consistent seeds), only the seeds' provenance differs.
        Rekeying after a round has been answered would desynchronize the
        pair streams, so it is refused.
        """
        if self._rounds_served:
            raise RuntimeError(
                f"shard {self.shard_id} cannot rekey after answering "
                f"{self._rounds_served} round(s); mask streams would desync"
            )
        self._blinder = PairwiseBlinder.from_pair_seeds(
            self.shard_id, self.n_shards, pair_seeds
        )

    def blinded_counts(self, node_ids) -> np.ndarray:
        """Blinded shares of this shard's counts for the nodes ``node_ids``.

        The numbers may name nodes of any depth grown so far, in any
        order.  One aggregation round: the pair mask streams advance by
        exactly ``len(node_ids)`` draws, so the coordinator must query
        every collector with the same numbers in the same round order.
        """
        numbers = np.asarray(node_ids, dtype=np.intp)
        unknown = _unknown(numbers, self._grown)
        if unknown is not None:
            raise KeyError(
                f"shard {self.shard_id} has no node {unknown}; the "
                "coordinator must split a node before querying its children"
            )
        counts = np.concatenate(self._labels.counts)[numbers]
        self._rounds_served += 1
        return self._blinder.blind(counts)

    def apply_splits(self, node_ids) -> None:
        """Mirror the coordinator's split decision for the nodes ``node_ids``.

        The numbers must name splittable nodes of the deepest level, each
        once, in ascending order (one splits round per level).  Anything
        else — an unknown number, a repeat, a node of an earlier level
        (including one already split), or a box past float resolution —
        raises ``KeyError``, a protocol error, and leaves the collector
        unchanged.  Otherwise the level splits in one vectorized pass, the
        children are counted (from the cell histogram down to its block
        depth, by moving every point to its child's label below it), and
        they take the next numbers.  Re-applying a split is refused: a retried round is
        answered from the endpoint's round cache, and
        :func:`~repro.federated.driver.replay_splits` runs each committed
        round once, on fresh collectors.
        """
        try:
            index = _split_index(self._level, self._grown, node_ids)
        except KeyError as exc:
            raise KeyError(f"shard {self.shard_id} {exc.args[0]}") from None
        level = self._level
        self._level = level.split(index)
        self._labels.descend(level, index, self._level)
        self._grown += self._level.size
