"""The spatial node payload: one box and the points inside it.

A :class:`SpatialNodeData` pairs a box with the points it contains.  Its
score is the point count — exactly the ``c(v)`` of the paper — and splitting
bisects the box and partitions the points among the children, so building a
tree never re-scans the full dataset.

It serves the node-at-a-time spatial code: SimpleTree, the binary-SVT
decomposition, the federated shard collectors (which mirror the
coordinator's splits with :meth:`SpatialNodeData.split_many`) and
``privtree_decomposition``.  The PrivTree fits themselves grow array
levels (:mod:`repro.spatial.level`) and never build a payload.

The number of dimensions bisected per split controls the fanout β:

* ``dims_per_split = d``  →  β = 2^d (the quadtree/hexadecatree default);
* ``dims_per_split = i < d``  →  β = 2^i with dimensions rotated round-robin,
  the configuration of the Figure 8 fanout ablation.

Storage layout
--------------
All payloads of one decomposition share a single read-only coordinate array
plus one mutable permutation of row indices; a payload is just a
``[start, stop)`` window into that permutation.  :meth:`split` computes every
point's child in one vectorized pass — packing the per-dimension
``coord >= midpoint`` bits into a child index — and then reorders its window
in place so each child is again a contiguous slice.  Nothing is ever copied,
``score()`` is ``stop - start``, and a whole build performs one
O(m)-vectorized pass per split instead of β = 2^d separate
``contains_points`` scans with β materialized sub-arrays.
"""

from __future__ import annotations

import numpy as np

from ..domains.box import Box
from .dataset import SpatialDataset
from .level import resolve_dims_per_split

__all__ = ["SpatialNodeData"]


class SpatialNodeData:
    """Box + contained points + round-robin split cursor.

    ``points`` may be any ``(n, d)`` array; it is stored unmodified and
    shared (never copied) with every descendant produced by :meth:`split`.
    """

    __slots__ = (
        "box",
        "dims_per_split",
        "next_dim",
        "_coords",
        "_order",
        "_start",
        "_stop",
        "_children",
    )

    def __init__(
        self,
        box: Box,
        points: np.ndarray | None = None,
        dims_per_split: int | None = None,
        next_dim: int = 0,
        *,
        _coords: np.ndarray | None = None,
        _order: np.ndarray | None = None,
        _start: int = 0,
        _stop: int | None = None,
    ) -> None:
        self.box = box
        if dims_per_split is None:
            dims_per_split = box.ndim
        self.dims_per_split = dims_per_split
        self.next_dim = next_dim
        if _coords is None:
            pts = np.asarray(
                points if points is not None else np.empty((0, box.ndim)),
                dtype=float,
            )
            if pts.ndim != 2 or pts.shape[1] != box.ndim:
                raise ValueError(
                    f"points must have shape (n, {box.ndim}), got {pts.shape}"
                )
            _coords = pts
            _order = np.arange(pts.shape[0], dtype=np.intp)
            _start, _stop = 0, pts.shape[0]
        self._coords = _coords
        self._order = _order
        self._start = _start
        self._stop = self._coords.shape[0] if _stop is None else _stop
        self._children: list["SpatialNodeData"] | None = None

    @staticmethod
    def root(dataset: SpatialDataset, dims_per_split: int | None = None) -> "SpatialNodeData":
        """Payload covering the whole domain of ``dataset``."""
        return SpatialNodeData(
            box=dataset.domain,
            points=dataset.points,
            dims_per_split=resolve_dims_per_split(dataset.ndim, dims_per_split),
        )

    @property
    def points(self) -> np.ndarray:
        """The node's points, materialized as an ``(m, d)`` array."""
        return self._coords[self._order[self._start : self._stop]]

    @property
    def fanout(self) -> int:
        """β — the number of children each split produces."""
        return 2 ** self.dims_per_split

    def _split_dims(self) -> list[int]:
        d = self.box.ndim
        return [(self.next_dim + j) % d for j in range(self.dims_per_split)]

    def score(self) -> float:
        """The point count ``c(v)``."""
        return float(self._stop - self._start)

    def can_split(self) -> bool:
        """Splittable until float resolution makes a midpoint degenerate."""
        return self.box.can_bisect(self._split_dims())

    def split(self) -> list["SpatialNodeData"]:
        """Bisect the scheduled dimensions and partition the points.

        Children come back in the lexicographic order of
        :meth:`~repro.domains.box.Box.bisect` and partition this node's
        window of the shared permutation.  Splitting is memoized: the window
        is reordered in place, so recomputing the partition from a
        second call would scramble the slices handed to the first call's
        children.
        """
        if self._children is not None:
            return self._children
        dims = self._split_dims()
        children_boxes = self.box.bisect(dims)
        d = self.box.ndim
        next_dim = (self.next_dim + self.dims_per_split) % d

        segment = self._order[self._start : self._stop]
        pts = self._coords[segment]
        # One pass over midpoint comparisons: child index = the per-dimension
        # "above the midpoint" bits packed most-significant-first, matching
        # Box.bisect's lexicographic child order (bit 0 = lower half, with the
        # half-open convention putting coord == midpoint in the upper child).
        child_idx = np.zeros(segment.shape[0], dtype=np.intp)
        for dim in dims:
            mid = (self.box.low[dim] + self.box.high[dim]) / 2.0
            child_idx = (child_idx << 1) | (pts[:, dim] >= mid)
        # Stable counting order keeps each child's points in the parent's
        # relative order, exactly like the historical per-child boolean masks.
        self._order[self._start : self._stop] = segment[
            np.argsort(child_idx, kind="stable")
        ]
        counts = np.bincount(child_idx, minlength=len(children_boxes))
        bounds = (self._start + np.concatenate(([0], np.cumsum(counts)))).tolist()
        self._children = [
            SpatialNodeData(
                box=child_box,
                dims_per_split=self.dims_per_split,
                next_dim=next_dim,
                _coords=self._coords,
                _order=self._order,
                _start=bounds[i],
                _stop=bounds[i + 1],
            )
            for i, child_box in enumerate(children_boxes)
        ]
        return self._children

    @staticmethod
    def split_many(
        payloads: list["SpatialNodeData"],
    ) -> list[list["SpatialNodeData"]]:
        """Split every payload of one tree level in a single vectorized pass.

        The decomposition engines hand over all nodes chosen to split at the
        current depth.  Those payloads share one coordinate/permutation store
        and one round-robin cursor, so their child indices can be computed by
        one concatenated midpoint comparison and one stable key sort instead
        of per-node numpy calls.  Falls back to node-by-node :meth:`split`
        when the payloads do not share a store (or were split already).

        Returns one child list per payload, in input order — element ``i`` is
        exactly ``payloads[i].split()``.
        """
        if not payloads:
            return []
        first = payloads[0]
        if any(
            p._coords is not first._coords
            or p._order is not first._order
            or p._children is not None
            or p.dims_per_split != first.dims_per_split
            or p.next_dim != first.next_dim
            for p in payloads
        ):
            return [p.split() for p in payloads]

        dims = first._split_dims()
        k = len(dims)
        fanout = 2**k
        n = len(payloads)
        sizes = [p._stop - p._start for p in payloads]
        rows = np.concatenate([p._order[p._start : p._stop] for p in payloads])
        pts = first._coords[rows]
        sizes_arr = np.asarray(sizes, dtype=np.intp)
        mids = np.array(
            [
                [(p.box.low[dim] + p.box.high[dim]) / 2.0 for dim in dims]
                for p in payloads
            ]
        )
        mids_per_point = np.repeat(mids, sizes_arr, axis=0)
        child_idx = np.zeros(rows.shape[0], dtype=np.intp)
        for j, dim in enumerate(dims):
            child_idx = (child_idx << 1) | (pts[:, dim] >= mids_per_point[:, j])
        # Sort once by (node, child): stable, so each child keeps its points
        # in the parent's relative order, exactly like node-by-node split().
        key = np.repeat(np.arange(n, dtype=np.intp), sizes_arr) * fanout + child_idx
        rows_sorted = rows[np.argsort(key, kind="stable")]
        counts = np.bincount(key, minlength=n * fanout).reshape(n, fanout)
        offsets = np.cumsum(counts, axis=1)

        results: list[list["SpatialNodeData"]] = []
        pos = 0
        for i, parent in enumerate(payloads):
            size = sizes[i]
            parent._order[parent._start : parent._stop] = rows_sorted[pos : pos + size]
            pos += size
            bounds = [parent._start] + (parent._start + offsets[i]).tolist()
            next_dim = (parent.next_dim + parent.dims_per_split) % parent.box.ndim
            parent._children = [
                SpatialNodeData(
                    box=child_box,
                    dims_per_split=parent.dims_per_split,
                    next_dim=next_dim,
                    _coords=parent._coords,
                    _order=parent._order,
                    _start=bounds[j],
                    _stop=bounds[j + 1],
                )
                for j, child_box in enumerate(parent.box.bisect(dims))
            ]
            results.append(parent._children)
        return results
