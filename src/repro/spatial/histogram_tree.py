"""The released spatial synopsis: a tree of boxes with noisy counts.

This is the public artifact a data curator would actually publish — it holds
no raw points, only sub-domains and noisy counts.  Range-count queries are
answered with the top-down traversal of Section 2.2: fully-covered nodes
contribute their count, partially-covered leaves contribute a
uniformity-based fraction of theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..domains.box import Box

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flat import FlatHistogram

__all__ = ["HistogramNode", "HistogramTree"]


@dataclass
class HistogramNode:
    """A released node: sub-domain, noisy count, children."""

    box: Box
    count: float
    children: list["HistogramNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """Whether the node has no children."""
        return not self.children

    def iter_nodes(self) -> Iterator["HistogramNode"]:
        """All nodes of the subtree, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class HistogramTree:
    """A private spatial synopsis supporting range-count queries.

    A tree is backed by its nodes (``HistogramTree(root=...)``) or by the
    flat arrays (:meth:`FlatHistogram.to_tree`).  A tree over arrays
    builds its :class:`HistogramNode` objects the first time :attr:`root`
    is read; ``size``, ``leaf_count``, ``height``, ``total_count`` and
    :meth:`flat` read the arrays, so a fit, the federated coordinator and
    a release publish and answer without building a node.  A tree of
    nodes computes its statistics in one walk and compiles :meth:`flat` on
    first use.  Both are cached: released trees are never mutated after
    construction, and experiments read these per trial.  Trees compare
    equal when their node trees do.
    """

    __hash__ = None  # compared by value

    def __init__(self, root: HistogramNode | None) -> None:
        # None only in FlatHistogram.to_tree, which sets _flat.
        self._root = root
        self._flat: "FlatHistogram | None" = None
        self._stats: tuple[int, int, int] | None = None

    @property
    def root(self) -> HistogramNode:
        """The root node (a tree over arrays builds its nodes once, here)."""
        if self._root is None:
            self._root = _nodes_from_arrays(self._flat)
        return self._root

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistogramTree):
            return NotImplemented
        return self.root == other.root

    def __repr__(self) -> str:
        return f"HistogramTree(size={self.size}, total_count={self.total_count!r})"

    def _compute_stats(self) -> tuple[int, int, int]:
        """(size, leaf_count, height) in one iterative traversal."""
        if self._stats is None:
            size = leaves = height = 0
            stack = [(self.root, 0)]
            while stack:
                node, depth = stack.pop()
                size += 1
                if node.is_leaf:
                    leaves += 1
                    if depth > height:
                        height = depth
                else:
                    stack.extend((child, depth + 1) for child in node.children)
            self._stats = (size, leaves, height)
        return self._stats

    @property
    def size(self) -> int:
        """Total number of nodes."""
        if self._flat is not None:
            return self._flat.size
        return self._compute_stats()[0]

    @property
    def leaf_count(self) -> int:
        """Number of leaves."""
        if self._flat is not None:
            return self._flat.leaf_count
        return self._compute_stats()[1]

    @property
    def height(self) -> int:
        """Number of levels minus one (root-only tree has height 0)."""
        if self._flat is not None:
            return self._flat.height
        return self._compute_stats()[2]

    @property
    def total_count(self) -> float:
        """The (noisy) total number of points."""
        if self._flat is not None:
            return self._flat.total_count
        return self.root.count

    def flat(self) -> "FlatHistogram":
        """The array-backed synopsis (compiled from the nodes once, then cached)."""
        if self._flat is None:
            from .flat import FlatHistogram

            self._flat = FlatHistogram.from_tree(self)
        return self._flat

    def range_count(self, query: Box) -> float:
        """Answer a range-count query via the §2.2 traversal.

        This is the reference pointer-chasing implementation;
        :meth:`flat` answers the same queries from contiguous arrays
        (``tree.flat().range_count(q)``) and should be preferred on hot
        paths, especially for whole workloads via ``range_count_many``.
        """
        answer = 0.0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.box.intersects(query):
                continue
            if query.contains_box(node.box):
                answer += node.count
            elif node.is_leaf:
                answer += node.count * node.box.overlap_fraction(query)
            else:
                stack.extend(node.children)
        return answer

    def range_count_many(self, queries) -> "np.ndarray":
        """Answer a whole workload via the flat engine (see :mod:`.flat`)."""
        return self.flat().range_count_many(queries)

    def leaf_boxes(self) -> list[Box]:
        """The sub-domains of all leaves (the decomposition's cells)."""
        return [n.box for n in self.root.iter_nodes() if n.is_leaf]

    def to_grid(self, shape: tuple[int, ...]) -> "np.ndarray":
        """Rasterize the synopsis onto a regular grid of the given shape.

        Each cell receives every overlapping leaf's count weighted by the
        overlapped volume fraction (the same uniformity assumption as
        :meth:`range_count`), so the raster's total equals the tree's total.
        Useful for handing the release to grid-based downstream tools.
        """
        import numpy as np

        if len(shape) != self.root.box.ndim:
            raise ValueError(
                f"shape has {len(shape)} axes but the tree is "
                f"{self.root.box.ndim}-d"
            )
        if any(s < 1 for s in shape):
            raise ValueError(f"grid shape {shape} has an empty axis")
        domain = self.root.box
        grid = np.zeros(shape)
        edges = [
            np.linspace(domain.low[d], domain.high[d], shape[d] + 1)
            for d in range(domain.ndim)
        ]
        for leaf in (n for n in self.root.iter_nodes() if n.is_leaf):
            slices, weights = [], []
            for d in range(domain.ndim):
                lo, hi = leaf.box.low[d], leaf.box.high[d]
                first = max(int(np.searchsorted(edges[d], lo, side="right")) - 1, 0)
                last = min(int(np.searchsorted(edges[d], hi, side="left")), shape[d])
                if last <= first:
                    slices = []
                    break
                cell_lo = edges[d][first:last]
                cell_hi = edges[d][first + 1 : last + 1]
                overlap = np.minimum(cell_hi, hi) - np.maximum(cell_lo, lo)
                weights.append(overlap / (hi - lo))
                slices.append(slice(first, last))
            if not slices:
                continue
            block = weights[0]
            for w in weights[1:]:
                block = np.multiply.outer(block, w)
            grid[tuple(slices)] += leaf.count * block
        return grid


def _nodes_from_arrays(flat: "FlatHistogram") -> HistogramNode:
    """Build the root node of ``flat``'s tree.

    The arrays are converted to Python lists once and the nodes built in
    reverse index order, children before their parent.  The boxes skip
    :class:`Box`'s validation: :meth:`FlatHistogram.to_tree` checked the
    bounds, whole arrays at a time, before it returned the tree.
    """
    lows = flat.lows.tolist()
    highs = flat.highs.tolist()
    counts = flat.counts.tolist()
    offsets = flat.child_offsets.tolist()
    index = flat.child_index.tolist()
    released: list[HistogramNode | None] = [None] * flat.size
    for i in range(flat.size - 1, -1, -1):
        released[i] = HistogramNode(
            box=Box._trusted(tuple(lows[i]), tuple(highs[i])),
            count=counts[i],
            children=[released[j] for j in index[offsets[i] : offsets[i + 1]]],
        )
    return released[0]
