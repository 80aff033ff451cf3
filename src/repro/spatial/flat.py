"""Flat, array-backed form of a released histogram tree.

A :class:`FlatHistogram` is a structure-of-arrays synopsis: node boxes as
``(m, d)`` ``lows`` / ``highs`` matrices, counts as an ``(m,)`` vector, and
the topology as ``parents``, from which the constructor derives CSR-style
child lists after checking all four.  It is the only in-memory form of a
released spatial tree: every fit, the JSON decoder and the v2 artifact
loader build one through that constructor, and
:meth:`FlatHistogram.to_tree` wraps it in the
:class:`~repro.spatial.histogram_tree.HistogramTree` view.
:meth:`FlatHistogram.preorder` is the one pre-order walk; the JSON writer
and the leaf readers use it, and :meth:`FlatHistogram.from_tree` lays a
tree's arrays out in that order.

Range counts run the §2.2 top-down answer for a whole batch at once.  A
query's answer is

* the count of every *maximal* fully-covered node (covered, with a parent
  that is not), plus
* the uniformity fraction of every partially-covered leaf.

:meth:`FlatHistogram.range_count_arrays` keeps a frontier of (query, node)
pairs and advances it one tree level per iteration: covered pairs add
their counts, partially-covered leaves their fractions, and the other
intersecting pairs expand into their children, so the visited pairs are
exactly those of the recursive traversal.  Each level tests one 1-D
column per dimension, gathered from views of the (possibly mmap'd) bounds
rather than ``(pairs, d)`` rows, turns its covered, partial-leaf and
descend masks into pair indices once with ``np.flatnonzero`` and selects
by gathering with them, and the node volumes and leaf mask are computed
once per synopsis and cached read-only.  The v2 artifact aligns every
array it maps, since misaligned float64 columns make the gathers about
40% slower.  The scalar ``range_count`` and ``range_count_many`` of the
:class:`~repro.domains.box.RangeCounter` base pack their boxes into one
call of it; its answers are byte-identical to the row-wise version frozen
as :func:`repro.experiments.perf.reference_range_count_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..domains.box import RangeCounter
from .histogram_tree import HistogramTree

__all__ = ["FlatHistogram"]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _child_lists(lows, highs, counts, parents) -> tuple[np.ndarray, np.ndarray]:
    """Check a tree's values and derive its read-only CSR child lists.

    Takes plain views (a memmap's Python-level hooks would run on every
    operation below) of arrays whose shapes and dtypes are checked.
    """
    below = parents[1:]
    if parents[0] != -1:
        raise ValueError("the root (row 0) must have parent -1")
    if np.any(below < 0) or np.any(below >= np.arange(1, parents.size)):
        raise ValueError("every node's parent must precede it")
    for bad, message in (
        (~(np.isfinite(lows) & np.isfinite(highs)), "non-finite box coordinate in"),
        (~(lows < highs), "low must be < high in"),
    ):
        if bad.any():
            cell = np.unravel_index(np.argmax(bad), bad.shape)  # the first, row-major
            raise ValueError(f"{message} [{lows[cell].item()!r}, {highs[cell].item()!r})")
    # np.take gathers whole rows several times faster than indexing does.
    escapes = (lows[1:] < np.take(lows, below, axis=0)) | (
        highs[1:] > np.take(highs, below, axis=0)
    )
    if escapes.any():
        child = int(np.argmax(escapes.any(axis=1))) + 1
        rows = [child, parents[child]]
        box, parent = zip(lows[rows].tolist(), highs[rows].tolist())
        raise ValueError(f"child box {box} escapes its parent {parent}")
    if not np.isfinite(counts).all():
        count = counts[np.argmin(np.isfinite(counts))].item()
        raise ValueError(f"non-finite node count {count!r}")
    # Each node's children in row order: a stable sort by parent.
    n_children = np.bincount(below, minlength=parents.size)
    child_offsets = np.concatenate(([0], np.cumsum(n_children)))
    return _read_only(child_offsets), _read_only(np.argsort(below, kind="stable") + 1)


@dataclass(frozen=True, eq=False)
class FlatHistogram(RangeCounter):
    """A structure-of-arrays spatial synopsis.

    Its one constructor takes ``lows``, ``highs``, ``counts`` and
    ``parents``, raises :class:`ValueError` unless they form a released
    tree, and derives the CSR child lists.  Node 0 is the root and every
    parent comes before its children.  The fits, the JSON decoder and
    :meth:`from_tree` lay the nodes out in pre-order, and
    :func:`~repro.experiments.perf.synthetic_flat_histogram` in level
    order; the nesting is the child lists', whatever the layout.

    Attributes
    ----------
    lows, highs:
        ``(m, d)`` finite float box bounds, one row per node (``m, d >=
        1``), ``low < high`` in every cell, each child inside its parent.
    counts:
        ``(m,)`` finite float noisy node counts.
    parents:
        ``(m,)`` integer index of each node's parent: ``-1`` for the root,
        below the node's own row otherwise.
    child_offsets, child_index:
        Derived, read-only CSR topology: node ``i``'s children are
        ``child_index[child_offsets[i]:child_offsets[i + 1]]``, in row
        order, as every writer lays siblings out.
    """

    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray
    parents: np.ndarray
    child_offsets: np.ndarray = field(init=False, repr=False)
    child_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Kept as given, so an artifact's memmaps stay memmaps.
        lows, highs, counts, parents = map(
            np.asanyarray, (self.lows, self.highs, self.counts, self.parents)
        )
        if (
            lows.ndim != 2
            or lows.shape != highs.shape
            or not lows.size
            or not lows.dtype.kind == highs.dtype.kind == "f"
        ):
            raise ValueError(
                f"bounds must be matching non-empty (m, d) float arrays, got "
                f"{lows.dtype} {lows.shape} and {highs.dtype} {highs.shape}"
            )
        m = len(lows)
        for name, array, kinds, what in (
            ("counts", counts, "f", "floats"), ("parents", parents, "iu", "integers")
        ):
            if array.shape != (m,) or array.dtype.kind not in kinds:
                raise ValueError(
                    f"{name} must be {m} {what}, one per node, got {array.dtype} "
                    f"{array.shape}"
                )
        # An unsigned value past the intp range wraps negative and fails
        # the range check.
        parents = parents.astype(np.intp, copy=False)
        derived = _child_lists(*map(np.asarray, (lows, highs, counts, parents)))
        names = ("lows", "highs", "counts", "parents", "child_offsets", "child_index")
        for name, value in zip(names, (lows, highs, counts, parents, *derived)):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        """Total number of nodes."""
        return int(self.counts.shape[0])

    @property
    def ndim(self) -> int:
        """Dimensionality of the node boxes."""
        return int(self.lows.shape[1])

    @cached_property
    def is_leaf(self) -> np.ndarray:
        """Boolean leaf mask (no children in the CSR topology); read-only."""
        return _read_only(np.diff(self.child_offsets) == 0)

    @property
    def leaf_count(self) -> int:
        """Number of leaves."""
        return int(self.is_leaf.sum())

    @property
    def total_count(self) -> float:
        """The (noisy) total number of points — the root's count."""
        return float(self.counts[0])

    @cached_property
    def volumes(self) -> np.ndarray:
        """Per-node box volumes; read-only."""
        return _read_only(np.prod(self.highs - self.lows, axis=1))

    @property
    def height(self) -> int:
        """Depth of the deepest node (root = 0), one CSR pass per level."""
        frontier = np.zeros(1, dtype=np.intp)
        height = 0
        while True:
            _, frontier = self._children(frontier)
            if not frontier.size:
                return height
            height += 1

    def _children(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(child count of each node, all their children in node order)."""
        starts = self.child_offsets[nodes]
        n_children = self.child_offsets[nodes + 1] - starts
        # Ragged ranges: child j of node i is child_index[starts_i + j].
        shifts = np.repeat(starts - np.cumsum(n_children) + n_children, n_children)
        return n_children, self.child_index[np.arange(shifts.size) + shifts]

    def preorder(self) -> tuple[np.ndarray, np.ndarray]:
        """(node at each pre-order position, its depth).

        Walks the CSR child lists one level at a time, like :attr:`height`,
        so any layout in which parents come before their children is read
        in the order of its nesting.
        """
        levels = [np.zeros(1, dtype=np.intp)]
        fanouts = []
        while True:
            n_children, children = self._children(levels[-1])
            fanouts.append(n_children)
            if not children.size:
                break
            levels.append(children)
        # Per level, the running total of its subtree sizes (from 0), deepest
        # level first.  A level's children are grouped by parent, in the
        # parents' order.
        totals = [np.arange(levels[-1].size + 1)]
        for n_children in reversed(fanouts[:-1]):
            stops = np.cumsum(n_children)
            sizes = 1 + totals[0][stops] - totals[0][stops - n_children]
            totals.insert(0, np.concatenate(([0], np.cumsum(sizes))))
        # A child sits after its parent and the subtrees of its elder siblings.
        order = np.empty(int(totals[0][-1]), dtype=np.intp)
        depth = np.empty_like(order)
        positions = np.zeros(1, dtype=np.intp)
        for k, (nodes, n_children) in enumerate(zip(levels, fanouts)):
            order[positions] = nodes
            depth[positions] = k
            if k + 1 < len(levels):
                below = totals[k + 1]
                starts = np.cumsum(n_children) - n_children
                positions = np.repeat(positions + 1 - below[starts], n_children) + below[:-1]
        return order, depth

    def leaf_rows(self) -> np.ndarray:
        """The leaf rows, in pre-order."""
        order, _ = self.preorder()
        return order[self.is_leaf[order]]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_tree(tree: HistogramTree) -> "FlatHistogram":
        """``tree``'s arrays, laid out in pre-order.

        A fitted or JSON-decoded tree is in pre-order already and comes
        back with equal arrays; any other layout is reordered, each
        parent renumbered to its pre-order row.
        """
        flat = tree.flat()
        order, _ = flat.preorder()
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        parents = np.full(order.size, -1, dtype=np.intp)
        parents[1:] = rank[flat.parents[order[1:]]]
        return FlatHistogram(
            np.asarray(flat.lows, dtype=float)[order],
            np.asarray(flat.highs, dtype=float)[order],
            np.asarray(flat.counts, dtype=float)[order],
            parents,
        )

    def to_tree(self) -> HistogramTree:
        """The :class:`HistogramTree` view of these arrays."""
        return HistogramTree(self)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        """Answer ``(n, d)`` low/high bound matrices in one traversal.

        The tree's one range-count engine: :meth:`range_count` and
        :meth:`range_count_many` pack boxes into these matrices, and the
        binary wire codec and the bench harness pass theirs as they are.
        """
        q_lows, q_highs = self._bounds(q_lows, q_highs)
        n_queries = q_lows.shape[0]
        if n_queries == 0:
            return np.empty(0)
        counts = self.counts
        volumes = self.volumes
        leaf = self.is_leaf
        # One 1-D column per dimension: plain views of the (possibly
        # mmap'd) bounds, so a gather reads one column instead of whole
        # rows and runs no memmap hooks.
        node_lows = np.asarray(self.lows)
        node_highs = np.asarray(self.highs)
        columns = [
            (node_lows[:, k], node_highs[:, k], q_lows[:, k], q_highs[:, k])
            for k in range(self.ndim)
        ]

        answers = np.zeros(n_queries)
        # Frontier of (query, node) pairs, all queries at the root.
        query_ids = np.arange(n_queries, dtype=np.intp)
        node_ids = np.zeros(n_queries, dtype=np.intp)
        while node_ids.size:
            covered = intersects = True
            overlaps = []
            for low_k, high_k, q_low_k, q_high_k in columns:
                node_low = low_k[node_ids]
                node_high = high_k[node_ids]
                q_low = q_low_k[query_ids]
                q_high = q_high_k[query_ids]
                covered = covered & (node_low >= q_low) & (node_high <= q_high)
                # The gathers are fresh arrays: reuse them for the overlap.
                overlap = np.minimum(node_high, q_high, out=node_high)
                overlap -= np.maximum(node_low, q_low, out=node_low)
                intersects = intersects & (overlap > 0)
                overlaps.append(overlap)
            # Each mask becomes pair indices once, and every selection is a
            # gather by them: a boolean-mask compression costs several times
            # as much, and there are a few per mask.
            # Fully-covered nodes contribute their count (covered implies
            # intersecting: boxes have positive volume).
            covered_at = np.flatnonzero(covered)
            if covered_at.size:
                answers += np.bincount(
                    query_ids[covered_at],
                    weights=counts[node_ids[covered_at]],
                    minlength=n_queries,
                )
            uncovered = intersects & ~covered
            leaf_pairs = leaf[node_ids]
            # Partially-covered leaves contribute a uniformity fraction.
            partial_at = np.flatnonzero(uncovered & leaf_pairs)
            if partial_at.size:
                partial_nodes = node_ids[partial_at]
                # Dimension order 0..d-1: the float product np.prod takes
                # along a row.
                product = overlaps[0][partial_at]
                for overlap in overlaps[1:]:
                    product = product * overlap[partial_at]
                fractions = product / volumes[partial_nodes]
                answers += np.bincount(
                    query_ids[partial_at],
                    weights=counts[partial_nodes] * fractions,
                    minlength=n_queries,
                )
            # Descend into intersecting, uncovered internal nodes.
            descend_at = np.flatnonzero(uncovered & ~leaf_pairs)
            n_children, node_ids = self._children(node_ids[descend_at])
            query_ids = np.repeat(query_ids[descend_at], n_children)
        return answers

