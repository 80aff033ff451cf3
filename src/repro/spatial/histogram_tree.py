"""The released spatial synopsis: a tree of boxes with noisy counts.

This is the public artifact a data curator would actually publish — it holds
no raw points, only sub-domains and noisy counts.  Range-count queries are
answered with the top-down traversal of Section 2.2: fully-covered nodes
contribute their count, partially-covered leaves contribute a
uniformity-based fraction of theirs.

A :class:`HistogramTree` is a view over one
:class:`~repro.spatial.flat.FlatHistogram`, the only in-memory form of a
released tree: its statistics and answers come from the flat engine, and
its readers (:meth:`HistogramTree.leaf_boxes`, :meth:`HistogramTree.to_grid`)
read the leaf rows in pre-order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..domains.box import Box

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flat import FlatHistogram

__all__ = ["HistogramTree"]


class HistogramTree:
    """A private spatial synopsis supporting range-count queries.

    Built by :meth:`FlatHistogram.to_tree` (every fit, the JSON decoder
    and the v2 artifact loader end there).  The bounds are checked here,
    because the arrays may be an mmap'd artifact from outside the process:
    ``(m, d)`` matrices of one shape with ``d >= 1``, and ``low < high`` in
    every cell (so no NaN), or :class:`Box`'s ``ValueError`` for the first
    offending cell.  Trees compare equal when their pre-order arrays do.
    """

    __hash__ = None  # compared by value

    def __init__(self, flat: "FlatHistogram") -> None:
        lows = np.asarray(flat.lows)
        highs = np.asarray(flat.highs)
        if lows.ndim != 2 or lows.shape != highs.shape or len(lows) != flat.size:
            raise ValueError(
                f"bounds must be matching ({flat.size}, d) matrices, got "
                f"{lows.shape} and {highs.shape}"
            )
        if lows.shape[1] == 0:
            raise ValueError("a box must have at least one dimension")
        extents = lows < highs
        if not extents.all():
            cell = np.unravel_index(np.argmin(extents), extents.shape)
            raise ValueError(
                f"degenerate extent [{lows[cell].item()}, {highs[cell].item()})"
            )
        self._flat = flat

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistogramTree):
            return NotImplemented
        from .flat import FlatHistogram

        mine, theirs = FlatHistogram.from_tree(self), FlatHistogram.from_tree(other)
        return all(
            np.array_equal(getattr(mine, name), getattr(theirs, name))
            for name in ("lows", "highs", "counts", "child_offsets", "child_index")
        )

    def __repr__(self) -> str:
        return f"HistogramTree(size={self.size}, total_count={self.total_count!r})"

    @property
    def domain(self) -> Box:
        """The root's box: the released domain."""
        return Box.from_arrays(self._flat.lows[0], self._flat.highs[0])

    @property
    def size(self) -> int:
        """Total number of nodes."""
        return self._flat.size

    @property
    def leaf_count(self) -> int:
        """Number of leaves."""
        return self._flat.leaf_count

    @property
    def height(self) -> int:
        """Number of levels minus one (root-only tree has height 0)."""
        return self._flat.height

    @property
    def total_count(self) -> float:
        """The (noisy) total number of points."""
        return self._flat.total_count

    def flat(self) -> "FlatHistogram":
        """The array-backed synopsis this tree views."""
        return self._flat

    def range_count(self, query: Box) -> float:
        """Answer a range-count query via the §2.2 traversal (flat engine)."""
        return self._flat.range_count(query)

    def range_count_many(self, queries) -> np.ndarray:
        """Answer a whole workload via the flat engine (see :mod:`.flat`)."""
        return self._flat.range_count_many(queries)

    def _leaves(self) -> tuple[list, list, list]:
        """The leaves' lows, highs and counts as Python lists, in pre-order."""
        flat = self._flat
        rows = flat.leaf_rows()
        return tuple(
            np.asarray(column)[rows].tolist()
            for column in (flat.lows, flat.highs, flat.counts)
        )

    def leaf_boxes(self) -> list[Box]:
        """The sub-domains of all leaves (the decomposition's cells), pre-order."""
        lows, highs, _ = self._leaves()
        return [Box._trusted(tuple(lo), tuple(hi)) for lo, hi in zip(lows, highs)]

    def to_grid(self, shape: tuple[int, ...]) -> np.ndarray:
        """Rasterize the synopsis onto a regular grid of the given shape.

        Each cell receives every overlapping leaf's count weighted by the
        overlapped volume fraction (the same uniformity assumption as
        :meth:`range_count`), so the raster's total equals the tree's total.
        Useful for handing the release to grid-based downstream tools.
        """
        domain = self.domain
        if len(shape) != domain.ndim:
            raise ValueError(
                f"shape has {len(shape)} axes but the tree is {domain.ndim}-d"
            )
        if any(s < 1 for s in shape):
            raise ValueError(f"grid shape {shape} has an empty axis")
        grid = np.zeros(shape)
        edges = [
            np.linspace(domain.low[d], domain.high[d], shape[d] + 1)
            for d in range(domain.ndim)
        ]
        for leaf_low, leaf_high, count in zip(*self._leaves()):
            slices, weights = [], []
            for d in range(domain.ndim):
                lo, hi = leaf_low[d], leaf_high[d]
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
            grid[tuple(slices)] += count * block
        return grid
