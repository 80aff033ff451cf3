"""A spatial tree frontier as arrays: one :class:`BoxLevel` per depth.

Every spatial tree that splits at midpoints grows these levels:
PrivTree's centralized and federated fits and ``privtree_decomposition``
through :func:`~repro.core.privtree.grow_frontier`, and SimpleTree and
the binary-SVT demo through :func:`~repro.core.simpletree.grow_simpletree`
(only the k-d tree baseline, which splits at private near-medians, builds
its own nodes).  Both loops walk the tree one depth at a time, and every
spatial question they ask of a depth is an array operation: which boxes
can still be bisected, what their midpoints are, and what their children
are.  A :class:`BoxLevel` holds one depth's boxes as ``(m, d)`` ``lows``
/ ``highs`` matrices.  All its nodes share a depth and therefore a
round-robin split cursor, so eligibility and bisection are a few
vectorized expressions per level, with the same float operations as
:meth:`Box.can_bisect <repro.domains.box.Box.can_bisect>` and
:meth:`Box.bisect <repro.domains.box.Box.bisect>`, and children in
``Box.bisect``'s lexicographic order.  A split level links the level
its nodes made (:class:`~repro.core.level.Level`), so the root level is
the whole tree; :func:`~repro.core.level.preorder` lays it out as
:class:`~repro.spatial.flat.FlatHistogram` arrays.

The levels carry geometry only, so the federated coordinator grows the
same levels as the centralized fit.  Every other spatial tree's score
source is :class:`PointLabels`: one int32 label per point, naming the
point's node in the current level, updated in place at every split and
counted with one ``bincount`` per level.
"""

from __future__ import annotations

import numpy as np

from ..core.level import Level
from ..domains.box import Box

__all__ = ["BoxLevel", "PointLabels", "resolve_dims_per_split"]


def resolve_dims_per_split(ndim: int, dims_per_split: int | None) -> int:
    """``dims_per_split`` for an ``ndim``-dimensional domain.

    ``None`` means every dimension; anything outside ``[1, ndim]`` is a
    ``ValueError``.
    """
    if dims_per_split is None:
        return ndim
    if not 1 <= dims_per_split <= ndim:
        raise ValueError(
            f"dims_per_split must be in [1, {ndim}], got {dims_per_split}"
        )
    return dims_per_split


class BoxLevel(Level):
    """The boxes of one frontier depth, as ``(m, d)`` bound matrices.

    After :meth:`split`, ``split_index`` holds the ascending indices of the
    nodes that split and ``next`` the level of their children; node ``r *
    fanout + j`` of ``next`` is child ``j`` of the ``r``-th split node.
    """

    __slots__ = ("lows", "highs", "dims_per_split", "next_dim")

    def __init__(
        self,
        depth: int,
        lows: np.ndarray,
        highs: np.ndarray,
        dims_per_split: int,
        next_dim: int = 0,
    ) -> None:
        super().__init__(depth)
        self.lows = lows
        self.highs = highs
        self.dims_per_split = dims_per_split
        self.next_dim = next_dim

    @staticmethod
    def root(domain: Box, dims_per_split: int | None = None) -> "BoxLevel":
        """The one-node level covering ``domain``.

        Checks ``dims_per_split`` (:func:`resolve_dims_per_split`), so a
        fit can reject it before spending any budget.
        """
        return BoxLevel(
            0,
            np.array([domain.low], dtype=float),
            np.array([domain.high], dtype=float),
            resolve_dims_per_split(domain.ndim, dims_per_split),
        )

    @property
    def size(self) -> int:
        """Number of nodes at this depth."""
        return self.lows.shape[0]

    @property
    def fanout(self) -> int:
        """β — the number of children each split produces."""
        return 2**self.dims_per_split

    @property
    def dims(self) -> list[int]:
        """The dimensions this depth bisects, round-robin from the cursor."""
        d = self.lows.shape[1]
        return [(self.next_dim + j) % d for j in range(self.dims_per_split)]

    def midpoints(self, index: np.ndarray) -> np.ndarray:
        """``(len(index), dims_per_split)`` midpoints ``(lo + hi) / 2.0``."""
        dims = self.dims
        return (self.lows[index][:, dims] + self.highs[index][:, dims]) / 2.0

    def splittable(self) -> np.ndarray:
        """Mask of the boxes whose every midpoint lies strictly inside.

        Once float resolution makes a midpoint collapse onto an endpoint,
        the box is atomic (the test of ``Box.can_bisect``).
        """
        dims = self.dims
        low = self.lows[:, dims]
        high = self.highs[:, dims]
        mid = (low + high) / 2.0
        return ((low < mid) & (mid < high)).all(axis=1)

    def split(self, index: np.ndarray) -> "BoxLevel":
        """Bisect the boxes at the ascending ``index``; return their children.

        Child ``j`` takes the upper half of ``dims[i]`` when bit ``k - 1 -
        i`` of ``j`` is set, which is the order of ``Box.bisect``.  The
        boxes at ``index`` must be splittable.
        """
        index = np.asarray(index, dtype=np.intp)
        dims = self.dims
        k = len(dims)
        fanout = 2**k
        mids = self.midpoints(index)
        lows = np.repeat(self.lows[index], fanout, axis=0)
        highs = np.repeat(self.highs[index], fanout, axis=0)
        child = np.arange(fanout)
        for i, dim in enumerate(dims):
            upper = np.tile(((child >> (k - 1 - i)) & 1).astype(bool), index.size)
            mid = np.repeat(mids[:, i], fanout)
            lows[upper, dim] = mid[upper]
            highs[~upper, dim] = mid[~upper]
        self.split_index = index
        self.next = BoxLevel(
            self.depth + 1,
            lows,
            highs,
            self.dims_per_split,
            (self.next_dim + k) % self.lows.shape[1],
        )
        return self.next


class PointLabels:
    """The centralized score source: each point's node in the current level.

    ``labels[p]`` is ``1 + i`` while point ``p`` lies in node ``i`` of the
    current level, and ``0`` once its node has stopped splitting.  A level's
    exact counts are then one ``bincount``, taken when the level is made
    and kept in :attr:`counts` (the leaf release reads them back).  The
    labels are int32 and every split rewrites them in place.  Once at
    least half the points have stopped, the stopped ones are dropped
    (coordinates and labels both), so a level costs time in proportion to
    the points still in play.
    """

    def __init__(self, points: np.ndarray) -> None:
        self._coords = points
        self._labels = np.ones(points.shape[0], dtype=np.int32)
        #: Exact counts of every node, one array per depth.
        self.counts: list[np.ndarray] = [self._count(1)]

    def _count(self, size: int) -> np.ndarray:
        return np.bincount(self._labels, minlength=size + 1)[1:]

    def scores(self, level: BoxLevel, eligible: np.ndarray) -> np.ndarray:
        """Exact counts of ``level``'s nodes at ``eligible``."""
        return self.counts[level.depth][eligible]

    def descend(self, level: BoxLevel, split: np.ndarray, next_level: BoxLevel) -> None:
        """Move every point to its node in ``next_level`` (a commit callback).

        A point of split node ``r`` goes to child ``r * fanout + j``, where
        bit ``k - 1 - i`` of ``j`` is ``coord[dims[i]] >= mid``; points of
        nodes that did not split get label 0.
        """
        fanout = level.fanout
        # First label of each split node's children; 0 for everything else.
        first = np.zeros(level.size + 1, dtype=np.int32)
        first[split + 1] = 1 + fanout * np.arange(split.size, dtype=np.int32)
        np.take(first, self._labels, out=self._labels, mode="clip")
        in_play = int(self.counts[level.depth][split].sum())
        if 2 * in_play <= self._labels.size:
            keep = self._labels > 0
            self._coords = self._coords[keep]
            self._labels = self._labels[keep]
        # Each child label maps back to its parent's midpoints; label 0
        # maps to NaN, which no coordinate is >= to.
        mids = np.full((level.dims_per_split, next_level.size + 1), np.nan)
        mids[:, 1:] = np.repeat(level.midpoints(split), fanout, axis=0).T
        child = np.zeros(self._labels.size, dtype=np.uint8 if fanout <= 256 else np.int32)
        for i, dim in enumerate(level.dims):
            child <<= 1
            child |= self._coords[:, dim] >= mids[i][self._labels]
        self._labels += child
        self.counts.append(self._count(next_level.size))
