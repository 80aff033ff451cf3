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
source is :class:`PointLabels`.  Midpoint splits are data-independent:
the domain alone decides which node of any depth a point lies in.  So
:class:`PointLabels` bins every point once, into the cells of the first
``K`` levels' full grid, and reads the counts of every level down to
depth ``K`` from that one cell histogram; below ``K`` it keeps one int32
label per point, naming the point's node in the current level, and
counts each level with one ``bincount``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core.analysis import check_integer
from ..core.level import Level
from ..domains.box import Box
from ..telemetry import span as _span

__all__ = ["BoxLevel", "PointLabels", "resolve_dims_per_split"]


def resolve_dims_per_split(ndim: int, dims_per_split: int | None) -> int:
    """``dims_per_split`` for an ``ndim``-dimensional domain.

    ``None`` means every dimension; a bool, a non-integer or anything
    outside ``[1, ndim]`` is a ``ValueError``.
    """
    if dims_per_split is None:
        return ndim
    check_integer("dims_per_split", dims_per_split, 1)
    if dims_per_split > ndim:
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


#: The cell histogram holds at most this many cells (8 MiB of counts).
_MAX_CELLS = 2**20
#: Points binned at a time by the one-time pass, so its float temporaries
#: stay small.
_CHUNK = 2**16


class _Axis(NamedTuple):
    """One dimension of the cell grid below a root level.

    ``bounds`` are the ``2**t + 1`` boundaries of the dimension's ``t``
    bisections, with the two ends widened to ``-inf`` and ``+inf`` (the
    descent clamps at both ends); ``low`` and ``high`` are the real ends.
    ``spread[i]`` holds cell ``i``'s bits of a node code.
    """

    low: float
    high: float
    bounds: np.ndarray
    spread: np.ndarray

    def cells(self, x: np.ndarray) -> np.ndarray:
        """Each coordinate's cell: the number of inner boundaries ``<= x``.

        That is the cell the ``x >= mid`` descent reaches, because the
        boundaries strictly rise.  An affine estimate finds it for almost
        every point; the few that float rounding puts one cell off fail
        ``bounds[i] <= x < bounds[i + 1]`` and are looked up in the table.
        A NaN passes that check in cell 0, where the descent leaves it.
        """
        last = self.bounds.size - 2
        # An extent too narrow or too wide for floats makes the estimate
        # inf or NaN; the clamps and the check below set it right.
        with np.errstate(over="ignore", invalid="ignore"):
            guess = (x - self.low) * ((last + 1) / (self.high - self.low))
        np.fmax(guess, 0, out=guess)
        np.fmin(guess, last, out=guess)
        cell = guess.astype(np.intp)
        miss = (x < self.bounds[:-1][cell]) | (x >= self.bounds[1:][cell])
        if miss.any():
            cell[miss] = np.searchsorted(self.bounds[1:-1], x[miss], side="right")
        return cell


def _bisections(low: float, high: float, times: int) -> np.ndarray:
    """The boundaries of at most ``times`` bisections of ``[low, high]``.

    Each bisection inserts every interval's midpoint ``(lo + hi) / 2.0``,
    the float operation of :meth:`BoxLevel.split`.  It stops before the
    first bisection whose boundaries would not strictly rise (a midpoint
    that collapses onto an end), so ``2**t + 1`` rising boundaries of
    ``t <= times`` bisections come back.
    """
    edges = np.array([low, high])
    for _ in range(times):
        finer = np.empty(2 * edges.size - 1)
        finer[0::2] = edges
        finer[1::2] = (edges[:-1] + edges[1:]) / 2.0
        if not (finer[:-1] < finer[1:]).all():
            break
        edges = finer
    return edges


def _cell_grid(root: BoxLevel, n: int) -> tuple[int, list[_Axis]]:
    """The block depth ``K`` below ``root`` and the axes of its cell grid.

    ``K`` is the deepest depth whose ``fanout**K`` cells fit in
    ``min(2**20, 2 * n)`` and at which every dimension's boundaries
    strictly rise.  Bit ``p`` of a depth-``K`` node code, counted from the
    top, is the upper-half bit of bisecting dimension ``(next_dim + p) %
    d``: level ``t`` owns bits ``t * k`` to ``t * k + k - 1``, in the order
    of its ``dims``, which makes child ``j`` of code ``c`` the code ``c *
    fanout + j``.  A dimension's first bisection is its cell index's top
    bit.
    """
    d = root.lows.shape[1]
    depth = 0
    while root.fanout ** (depth + 1) <= min(_MAX_CELLS, 2 * n):
        depth += 1

    def bit_dims(depth: int) -> np.ndarray:
        return (root.next_dim + np.arange(depth * root.dims_per_split)) % d

    edges = [
        _bisections(low, high, times)
        for low, high, times in zip(
            root.lows[0], root.highs[0], np.bincount(bit_dims(depth), minlength=d)
        )
    ]
    rising = np.array([(e.size - 1).bit_length() - 1 for e in edges])
    while (np.bincount(bit_dims(depth), minlength=d) > rising).any():
        depth -= 1
    dims = bit_dims(depth)
    axes = []
    for dim, e in enumerate(edges):
        places = dims.size - 1 - np.flatnonzero(dims == dim)
        e = e[:: 2 ** (rising[dim] - places.size)]
        # Each bisection doubles the cells: cell 2i + b is cell i's half b.
        spread = np.zeros(1, dtype=np.int32)
        for place in places.tolist():
            spread = np.stack([spread, spread | 1 << place], axis=1).ravel()
        bounds = e.copy()
        bounds[[0, -1]] = -np.inf, np.inf
        axes.append(_Axis(float(e[0]), float(e[-1]), bounds, spread))
    return depth, axes


def _cell_codes(root: BoxLevel, points: np.ndarray) -> tuple[int, np.ndarray]:
    """The block depth ``K`` below ``root`` and each point's depth-``K``
    node code (empty when ``K`` is 0).

    The axes' tables (up to 12 MiB for 1-D points) are freed on return,
    before the histogram is counted.
    """
    depth, axes = _cell_grid(root, points.shape[0])
    codes = np.zeros(points.shape[0] if depth else 0, dtype=np.int32)
    for start in range(0, codes.size, _CHUNK):
        chunk = points[start : start + _CHUNK]
        out = codes[start : start + _CHUNK]
        for dim, axis in enumerate(axes):
            if axis.spread.size > 1:
                out |= axis.spread[axis.cells(chunk[:, dim])]
    return depth, codes


class PointLabels:
    """The centralized score source: exact counts of every level's nodes.

    Down to the block depth ``K`` the counts come from one cell histogram.
    On the first :meth:`descend` (the root level's), every point is binned
    once: per dimension into its cell among the intervals of that
    dimension's bisections in the first ``K`` levels, and from those cells
    into the code of its node in depth ``K`` of the full grid, where child
    ``j`` of code ``c`` is ``c * fanout + j`` (:meth:`BoxLevel.split`'s
    order).  One ``bincount`` of the codes counts depth ``K``'s cells,
    sums of ``fanout`` neighbouring cells count every shallower depth, and
    each level down to ``K`` reads its nodes' counts by code.  ``K`` is the
    deepest depth with ``fanout**K <= min(2**20, 2 * n)`` at which every
    dimension's boundaries strictly rise, so the cell index is the
    ``coord >= mid`` descent; a domain whose bisection collapses sooner
    gets ``K = 0``.

    From depth ``K`` on, ``labels[p]`` is ``1 + i`` while point ``p`` lies
    in node ``i`` of the current level, and ``0`` once its node has stopped
    splitting; a level's counts are one ``bincount``.  The labels are int32
    and every split rewrites them in place.  Once at least half the points
    have stopped, the stopped ones are dropped (coordinates and labels
    both), so a level costs time in proportion to the points still in
    play.  Every level's counts are kept in :attr:`counts` (the leaf
    release reads them back).
    """

    def __init__(self, points: np.ndarray) -> None:
        self._coords = points
        #: Exact counts of every node, one array per depth.
        self.counts: list[np.ndarray] = [np.array([points.shape[0]], dtype=np.intp)]
        self._labels: np.ndarray | None = None
        # Until depth K: each point's depth-K code, the cell counts of
        # every depth down to K by code, and the current level's codes.
        self._codes: np.ndarray | None = None
        self._by_code: list[np.ndarray] = []
        self._nodes = np.zeros(1, dtype=np.intp)

    def _count(self, size: int) -> np.ndarray:
        return np.bincount(self._labels, minlength=size + 1)[1:]

    def scores(self, level: BoxLevel, eligible: np.ndarray) -> np.ndarray:
        """Exact counts of ``level``'s nodes at ``eligible``."""
        return self.counts[level.depth][eligible]

    def descend(self, level: BoxLevel, split: np.ndarray, next_level: BoxLevel) -> None:
        """Count ``next_level``'s nodes (a commit callback).

        Down to depth ``K`` the children of split node ``r`` take codes
        ``codes[r] * fanout + j`` and their counts by code.  Below, a point
        of split node ``r`` goes to child ``r * fanout + j``, where bit
        ``k - 1 - i`` of ``j`` is ``coord[dims[i]] >= mid``; points of nodes
        that did not split get label 0.
        """
        fanout = level.fanout
        if self._labels is None and self._codes is None:
            self._bin(level)
        if self._codes is not None:
            self._nodes = (self._nodes[split, None] * fanout + np.arange(fanout)).ravel()
            self.counts.append(self._by_code[next_level.depth][self._nodes])
            if next_level.depth == len(self._by_code) - 1:
                self._label_cells()
            return
        # First label of each split node's children; 0 for everything else.
        first = np.zeros(level.size + 1, dtype=np.int32)
        first[split + 1] = 1 + fanout * np.arange(split.size, dtype=np.int32)
        np.take(first, self._labels, out=self._labels, mode="clip")
        self._drop_stopped(int(self.counts[level.depth][split].sum()))
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

    def _bin(self, root: BoxLevel) -> None:
        """The one-time pass: each point's depth-K code and the cell counts."""
        n = self._coords.shape[0]
        with _span("spatial.cell_histogram", points=n) as bin_span:
            depth, codes = _cell_codes(root, self._coords)
            cells = root.fanout**depth
            bin_span.set(nodes=cells, depth=depth)
            if not depth:
                self._labels = np.ones(n, dtype=np.int32)
                return
            self._codes = codes
            self._by_code = [np.bincount(codes, minlength=cells)]
            while self._by_code[0].size > 1:
                # A group of fanout = 2**k cells, as k rounds of pair sums
                # (several times faster than a sum over a short axis).
                counts = self._by_code[0]
                for _ in range(root.dims_per_split):
                    counts = counts[0::2] + counts[1::2]
                self._by_code.insert(0, counts)

    def _label_cells(self) -> None:
        """At depth K, turn each point's code into its label."""
        label = np.zeros(self._by_code.pop().size, dtype=np.int32)
        self._by_code = []
        label[self._nodes] = np.arange(1, self._nodes.size + 1, dtype=np.int32)
        self._labels = np.take(label, self._codes, out=self._codes, mode="clip")
        self._codes = None
        self._drop_stopped(int(self.counts[-1].sum()))

    def _drop_stopped(self, in_play: int) -> None:
        """Drop the points with label 0 once at least half have stopped."""
        if 2 * in_play <= self._labels.size:
            # Indices and take, not a boolean mask: a mask's scattered
            # branches cost several times as much.
            keep = np.flatnonzero(self._labels)
            self._coords = self._coords.take(keep, axis=0)
            self._labels = self._labels.take(keep)
