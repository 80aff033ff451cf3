"""Flat, array-backed form of a released histogram tree.

A :class:`FlatHistogram` is a structure-of-arrays synopsis: node boxes as
``(m, d)`` ``lows`` / ``highs`` matrices, counts as an ``(m,)`` vector, and
the topology as ``parents`` plus CSR-style child offsets.  It is the only
in-memory form of a released spatial tree: every fit, the JSON decoder
and the v2 artifact loader produce these arrays, and
:meth:`FlatHistogram.to_tree` wraps them in the
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
rather than ``(pairs, d)`` rows, and the node volumes and leaf mask are
computed once per synopsis and cached read-only.  ``range_count_many``
and the scalar ``range_count`` call the same function; its answers are
byte-identical to the row-wise version frozen as
:func:`repro.experiments.perf.reference_range_count_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..domains.box import Box
from .histogram_tree import HistogramTree

__all__ = ["FlatHistogram"]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class FlatHistogram:
    """A structure-of-arrays spatial synopsis.

    Node 0 is the root, and every parent comes before its children.  The
    fits, the JSON decoder and :meth:`from_tree` lay the nodes out in
    pre-order; the v2 artifact loader accepts any layout with parents
    first, and :func:`~repro.experiments.perf.synthetic_flat_histogram`
    writes level order.  The nesting is the CSR child lists', whatever the
    layout.

    Attributes
    ----------
    lows, highs:
        ``(m, d)`` box bounds, one row per node.
    counts:
        ``(m,)`` noisy node counts.
    parents:
        ``(m,)`` index of each node's parent (``-1`` for the root).
    child_offsets, child_index:
        CSR topology: node ``i``'s children are
        ``child_index[child_offsets[i]:child_offsets[i + 1]]`` (node
        indices, left to right).
    """

    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray
    parents: np.ndarray
    child_offsets: np.ndarray
    child_index: np.ndarray

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
        back with equal arrays; any other layout is reordered, and the
        topology rebuilt from its CSR child lists.
        """
        flat = tree.flat()
        order, _ = flat.preorder()
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        n_children, children = flat._children(order)
        parents = np.full(order.size, -1, dtype=np.intp)
        parents[rank[children]] = np.repeat(np.arange(order.size), n_children)
        return FlatHistogram(
            lows=np.asarray(flat.lows, dtype=float)[order],
            highs=np.asarray(flat.highs, dtype=float)[order],
            counts=np.asarray(flat.counts, dtype=float)[order],
            parents=parents,
            child_offsets=np.concatenate(([0], np.cumsum(n_children))),
            child_index=rank[children],
        )

    def to_tree(self) -> HistogramTree:
        """The :class:`HistogramTree` view of these arrays (bounds checked)."""
        return HistogramTree(self)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_count(self, query: Box) -> float:
        """Answer one range-count query (vectorized §2.2 semantics)."""
        return float(self.range_count_many([query])[0])

    def range_count_many(self, queries: Sequence[Box] | Iterable[Box]) -> np.ndarray:
        """Answer a whole workload at once.

        Runs the §2.2 traversal for every query simultaneously: the frontier
        is a flat array of (query, node) pairs, advanced one tree level per
        iteration with pure-NumPy coverage/overlap tests, so the visited
        (query, node) pairs are exactly those of the recursive traversal but
        the per-node Python cost is gone.  Returns answers in workload
        order; equivalent (to float round-off) to calling
        :meth:`range_count` per query, ~an order of magnitude faster on
        thousand-query workloads.
        """
        queries = list(queries)
        n_queries = len(queries)
        if n_queries == 0:
            return np.empty(0)
        d = self.ndim
        for q in queries:
            if q.ndim != d:
                raise ValueError(
                    f"query has {q.ndim} dims but the synopsis has {d}"
                )
        q_lows = np.array([q.low for q in queries])
        q_highs = np.array([q.high for q in queries])
        return self.range_count_arrays(q_lows, q_highs)

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        """Answer ``(n, d)`` low/high bound arrays directly.

        The columnar entry point behind :meth:`range_count_many`: callers
        that already hold packed bound matrices (the binary wire codec, the
        bench harness) skip building per-query :class:`Box` objects.  The
        traversal and answers are identical.
        """
        q_lows = np.ascontiguousarray(q_lows, dtype=float)
        q_highs = np.ascontiguousarray(q_highs, dtype=float)
        if q_lows.shape != q_highs.shape or q_lows.ndim != 2:
            raise ValueError("query bounds must be matching (n, d) matrices")
        n_queries = q_lows.shape[0]
        if n_queries == 0:
            return np.empty(0)
        if q_lows.shape[1] != self.ndim:
            raise ValueError(
                f"queries have {q_lows.shape[1]} dims but the synopsis has "
                f"{self.ndim}"
            )
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
            # Fully-covered nodes contribute their count (covered implies
            # intersecting: boxes have positive volume).
            if covered.any():
                answers += np.bincount(
                    query_ids[covered],
                    weights=counts[node_ids[covered]],
                    minlength=n_queries,
                )
            uncovered = intersects & ~covered
            leaf_pairs = leaf[node_ids]
            # Partially-covered leaves contribute a uniformity fraction.
            partial = uncovered & leaf_pairs
            if partial.any():
                partial_nodes = node_ids[partial]
                # Dimension order 0..d-1: the float product np.prod takes
                # along a row.
                product = overlaps[0][partial]
                for overlap in overlaps[1:]:
                    product = product * overlap[partial]
                fractions = product / volumes[partial_nodes]
                answers += np.bincount(
                    query_ids[partial],
                    weights=counts[partial_nodes] * fractions,
                    minlength=n_queries,
                )
            # Descend into intersecting, uncovered internal nodes.
            descend = uncovered & ~leaf_pairs
            n_children, node_ids = self._children(node_ids[descend])
            query_ids = np.repeat(query_ids[descend], n_children)
        return answers


def _from_parents(lows, highs, counts, parents) -> FlatHistogram:
    """The arrays of a tree given as pre-order rows and their parents.

    ``parents[i]`` is the row of node ``i``'s parent (``-1`` for the root,
    row 0); the CSR child lists follow, each in row order.
    """
    parents = np.asarray(parents, dtype=np.intp)
    n_children = np.bincount(parents[1:], minlength=parents.size)
    return FlatHistogram(
        lows=np.asarray(lows, dtype=float),
        highs=np.asarray(highs, dtype=float),
        counts=np.asarray(counts, dtype=float),
        parents=parents,
        child_offsets=np.concatenate(([0], np.cumsum(n_children))),
        child_index=np.argsort(parents[1:], kind="stable") + 1,
    )
