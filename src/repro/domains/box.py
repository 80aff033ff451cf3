"""Axis-aligned boxes: the sub-domains of spatial decompositions.

A :class:`Box` is the ``dom(v)`` of Section 2.2: a half-open hyper-rectangle
``[low, high)`` in d dimensions.  Boxes know how to bisect themselves (all
dimensions at once for a 2^d quadtree split, or a subset of dimensions for
the round-robin splits used in the Figure 8 fanout ablation) and how to
answer the geometric predicates the range-count traversal needs.
:class:`RangeCounter` is the base of every spatial synopsis that answers
range counts of boxes.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Box", "RangeCounter"]


@dataclass(frozen=True)
class Box:
    """A half-open axis-aligned hyper-rectangle ``[low, high)``.

    ``low`` and ``high`` are tuples so the box is hashable and immutable;
    conversion to numpy happens at the predicate boundary.
    """

    low: tuple[float, ...]
    high: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.low) != len(self.high):
            raise ValueError(
                f"low has {len(self.low)} dims but high has {len(self.high)}"
            )
        if len(self.low) == 0:
            raise ValueError("a box must have at least one dimension")
        for lo, hi in zip(self.low, self.high):
            if not lo < hi:
                raise ValueError(f"degenerate extent [{lo}, {hi})")

    @staticmethod
    def from_arrays(low: Iterable[float], high: Iterable[float]) -> "Box":
        """Build a box from any float iterables (e.g. numpy arrays)."""
        return Box(tuple(float(x) for x in low), tuple(float(x) for x in high))

    @classmethod
    def _trusted(cls, low: tuple[float, ...], high: tuple[float, ...]) -> "Box":
        """Construct without re-validating (internal: inputs already checked)."""
        box = object.__new__(cls)
        object.__setattr__(box, "low", low)
        object.__setattr__(box, "high", high)
        return box

    @staticmethod
    def unit(ndim: int) -> "Box":
        """The unit cube ``[0, 1)^ndim``."""
        return Box((0.0,) * ndim, (1.0,) * ndim)

    @staticmethod
    def bounding(points: np.ndarray, padding: float = 1e-9) -> "Box":
        """Smallest box containing all ``points`` (with a half-open pad)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        lows = pts.min(axis=0)
        highs = pts.max(axis=0)
        span = np.maximum(highs - lows, 1.0)
        return Box.from_arrays(lows, highs + padding * span)

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.low)

    @property
    def extents(self) -> tuple[float, ...]:
        """Side length per dimension."""
        return tuple(hi - lo for lo, hi in zip(self.low, self.high))

    @property
    def volume(self) -> float:
        """Product of side lengths (``|dom(v)|`` in the paper)."""
        vol = 1.0
        for lo, hi in zip(self.low, self.high):
            vol *= hi - lo
        return vol

    @property
    def center(self) -> tuple[float, ...]:
        """Midpoint of the box."""
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.low, self.high))

    # ------------------------------------------------------------------
    # Geometric predicates
    # ------------------------------------------------------------------

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of which rows of ``points`` fall inside the box."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.ndim:
            raise ValueError(
                f"points must have shape (n, {self.ndim}), got {pts.shape}"
            )
        low = np.asarray(self.low)
        high = np.asarray(self.high)
        return np.all((pts >= low) & (pts < high), axis=1)

    def count_points(self, points: np.ndarray) -> int:
        """Number of rows of ``points`` inside the box."""
        return int(self.contains_points(points).sum())

    def contains_box(self, other: "Box") -> bool:
        """Whether ``other`` lies entirely within this box."""
        self._check_same_ndim(other)
        return all(
            slo <= olo and ohi <= shi
            for slo, shi, olo, ohi in zip(self.low, self.high, other.low, other.high)
        )

    def intersects(self, other: "Box") -> bool:
        """Whether the two boxes overlap on a set of positive volume."""
        self._check_same_ndim(other)
        return all(
            olo < shi and slo < ohi
            for slo, shi, olo, ohi in zip(self.low, self.high, other.low, other.high)
        )

    def intersection(self, other: "Box") -> "Box | None":
        """The overlapping box, or ``None`` if the overlap is empty."""
        if not self.intersects(other):
            return None
        low = tuple(max(a, b) for a, b in zip(self.low, other.low))
        high = tuple(min(a, b) for a, b in zip(self.high, other.high))
        return Box(low, high)

    def overlap_fraction(self, other: "Box") -> float:
        """``|self ∩ other| / |self|`` — the uniform-estimate weight of §2.2."""
        inter = self.intersection(other)
        if inter is None:
            return 0.0
        return inter.volume / self.volume

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------

    def bisect(self, dims: Sequence[int] | None = None) -> list["Box"]:
        """Bisect the box along ``dims`` (all dimensions when ``None``).

        Bisecting ``k`` dimensions yields ``2^k`` children in a fixed
        lexicographic order; with ``k = ndim`` this is the quadtree/octree
        split of the paper.
        """
        if dims is None:
            dims = list(range(self.ndim))
        dims = list(dims)
        if not dims:
            raise ValueError("must bisect at least one dimension")
        seen: set[int] = set()
        for d in dims:
            if d < 0 or d >= self.ndim:
                raise ValueError(f"dimension {d} out of range for ndim={self.ndim}")
            if d in seen:
                raise ValueError(f"dimension {d} repeated")
            seen.add(d)
        mid = {}
        for d in dims:
            m = (self.low[d] + self.high[d]) / 2.0
            if not self.low[d] < m < self.high[d]:
                raise ValueError(
                    f"degenerate extent [{self.low[d]}, {self.high[d]}) at "
                    f"dimension {d}: midpoint collapses onto an endpoint"
                )
            mid[d] = m
        # Children skip per-box revalidation: every extent is either inherited
        # from this (already valid) box or one of the above-checked halves.
        children = []
        for choice in itertools.product((0, 1), repeat=len(dims)):
            low = list(self.low)
            high = list(self.high)
            for bit, d in zip(choice, dims):
                if bit == 0:
                    high[d] = mid[d]
                else:
                    low[d] = mid[d]
            children.append(Box._trusted(tuple(low), tuple(high)))
        return children

    def can_bisect(self, dims: Sequence[int] | None = None) -> bool:
        """Whether bisection keeps every child extent strictly positive.

        Guards against float-resolution degeneracy: once an extent is so
        small that its midpoint equals an endpoint, the box is atomic.
        """
        if dims is None:
            dims = range(self.ndim)
        for d in dims:
            lo, hi = self.low[d], self.high[d]
            mid = (lo + hi) / 2.0
            if not (lo < mid < hi):
                return False
        return True

    # `Domain` protocol: default split bisects every dimension.
    def split(self) -> list["Box"]:
        """Protocol alias for :meth:`bisect` over all dimensions."""
        return self.bisect()

    def can_split(self) -> bool:
        """Protocol alias for :meth:`can_bisect` over all dimensions."""
        return self.can_bisect()

    def _check_same_ndim(self, other: "Box") -> None:
        if other.ndim != self.ndim:
            raise ValueError(
                f"dimension mismatch: {self.ndim} vs {other.ndim}"
            )


class RangeCounter(abc.ABC):
    """A spatial synopsis that answers range counts through one batch
    engine, :meth:`range_count_arrays`, on ``(n, d)`` matrices of query
    bounds: :meth:`range_count` and :meth:`range_count_many` pack boxes into
    them, so a box gets the same answer whichever way it is asked."""

    @abc.abstractmethod
    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        """The noisy counts of ``(n, d)`` query bounds, one per row."""

    def range_count(self, query: Box) -> float:
        """The noisy number of points inside ``query``."""
        return float(self.range_count_many([query])[0])

    def range_count_many(self, queries: Iterable[Box]) -> np.ndarray:
        """The noisy counts of a workload of boxes, in workload order."""
        queries = list(queries)
        shape = (len(queries), queries[0].ndim if queries else 0)
        q_lows = np.array([q.low for q in queries], dtype=float).reshape(shape)
        q_highs = np.array([q.high for q in queries], dtype=float).reshape(shape)
        return self.range_count_arrays(q_lows, q_highs)

    def _bounds(self, q_lows, q_highs) -> tuple[np.ndarray, np.ndarray]:
        """An engine's ``q_lows`` and ``q_highs`` as contiguous float
        ``(n, ndim)`` matrices; raises ``ValueError`` otherwise (an empty
        batch may have any width)."""
        q_lows = np.ascontiguousarray(q_lows, dtype=float)
        q_highs = np.ascontiguousarray(q_highs, dtype=float)
        if q_lows.shape != q_highs.shape or q_lows.ndim != 2:
            raise ValueError("query bounds must be matching (n, d) matrices")
        if len(q_lows) and q_lows.shape[1] != self.ndim:
            raise ValueError(
                f"queries have {q_lows.shape[1]} dims but the synopsis has "
                f"{self.ndim}"
            )
        return q_lows, q_highs
