"""Uniform grids over box domains — the substrate of the grid baselines.

A :class:`UniformGrid` stores one count per cell of a regular grid and
answers range-count queries with per-dimension fractional weighting: cells
fully inside the query contribute their whole count, boundary cells a
volume fraction (the same uniformity assumption as §2.2).

:meth:`UniformGrid.range_count_arrays` answers a batch from a table of
prefix sums built once per grid.  Interpolated multilinearly at a point,
the table counts the region below the point under the same rule, so each
query reads ``4**d`` entries at its ``2**d`` corners however many cells it
covers.  The answers equal the per-cell sum up to the round-off of the
prefix sums, and each is computed from its own bounds alone, element by
element, so it does not depend on its batch or on the counts' layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..domains.box import Box, RangeCounter
from ..spatial.dataset import SpatialDataset

__all__ = ["UniformGrid"]

#: Table entries gathered at a time; a query reads ``4**d`` of them.
_ENTRIES_PER_CHUNK = 1 << 18
#: The signs of a query's low and high side.
_SIDES = np.array([-1.0, 1.0])[:, None, None]


@dataclass
class UniformGrid(RangeCounter):
    """A regular grid of (possibly noisy) cell counts over ``domain``.

    ``counts`` has one axis per dimension; cell ``(i_1, ..., i_d)`` covers
    the box whose extent along axis ``k`` is the ``i_k``-th of ``shape[k]``
    equal slices of the domain.
    """

    domain: Box
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != self.domain.ndim:
            raise ValueError(
                f"counts has {counts.ndim} axes but domain has "
                f"{self.domain.ndim} dimensions"
            )
        if any(s < 1 for s in counts.shape):
            raise ValueError(f"grid shape {counts.shape} has an empty axis")
        if not np.isfinite(counts).all():
            raise ValueError("grid counts must be finite")
        object.__setattr__(self, "counts", counts)

    @property
    def shape(self) -> tuple[int, ...]:
        """Cells per dimension."""
        return self.counts.shape

    @property
    def ndim(self) -> int:
        """Dimensionality of the grid's domain."""
        return self.domain.ndim

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        return int(np.prod(self.shape))

    def edges(self, dim: int) -> np.ndarray:
        """The ``shape[dim] + 1`` cell boundaries along ``dim``."""
        return np.linspace(
            self.domain.low[dim], self.domain.high[dim], self.shape[dim] + 1
        )

    @staticmethod
    def histogram(dataset: SpatialDataset, shape: tuple[int, ...]) -> "UniformGrid":
        """Exact cell counts of ``dataset`` on a grid of the given shape."""
        if len(shape) != dataset.ndim:
            raise ValueError(
                f"shape has {len(shape)} axes but data has {dataset.ndim} dims"
            )
        edges = [
            np.linspace(dataset.domain.low[d], dataset.domain.high[d], shape[d] + 1)
            for d in range(dataset.ndim)
        ]
        counts, _ = np.histogramdd(dataset.points, bins=edges)
        return UniformGrid(domain=dataset.domain, counts=counts)

    def cell_box(self, index: tuple[int, ...]) -> Box:
        """The box covered by the cell at ``index``."""
        low, high = [], []
        for d, i in enumerate(index):
            e = self.edges(d)
            low.append(e[i])
            high.append(e[i + 1])
        return Box(tuple(low), tuple(high))

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The flattened ``shape + 1`` prefix sums (entry ``i`` sums
        ``counts[c]`` over every cell ``c < i``, by sequential sums along
        each axis) and their strides, and the domain's corners."""
        sums = np.zeros(tuple(s + 1 for s in self.shape))
        sums[tuple(slice(1, None) for _ in self.shape)] = self.counts
        for k in range(self.ndim):
            np.cumsum(sums, axis=k, out=sums)
        strides = np.array(sums.strides) // sums.itemsize
        return sums.ravel(), strides, np.array(self.domain.low), np.array(self.domain.high)

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        """Answer ``(n, d)`` query bounds with fractional boundary cells."""
        q_lows, q_highs = self._bounds(q_lows, q_highs)
        sums, strides, low, high = self._table
        shape, d = np.array(self.shape), self.ndim
        answers = np.zeros(len(q_lows))
        per_chunk = max(1, _ENTRIES_PER_CHUNK // 4**d)
        for start in range(0, len(q_lows), per_chunk):
            rows = slice(start, start + per_chunk)
            # Each query's low and high side per axis, clipped to the domain
            # (a (2, n, d) array) and counted in cells from its low corner,
            # lies in a cell at the fraction phi of its width.  A box empty
            # on some axis once clipped, or with a NaN side (placed at 0
            # here), answers 0.
            x = np.minimum(np.maximum(np.array((q_lows[rows], q_highs[rows])), low), high)
            u = np.fmax((x - low) / (high - low) * shape, 0.0)
            n = u.shape[1]
            cell = np.minimum(u.astype(np.intp), shape - 1)
            phi = u - cell
            # Entries cell and cell + 1 weigh 1 - phi and phi, and the low
            # side subtracts: both are (4, n, d).
            weights = (np.array((1.0 - phi, phi)) * _SIDES).reshape(4, n, d)
            entries = (np.array((cell, cell + 1)) * strides).reshape(4, n, d)
            index = entries[..., 0]
            for k in range(1, d):
                index = (index[:, None] + entries[..., k]).reshape(-1, n)
            terms = sums[index]
            # Contract the last axis's four entries first, in one fixed order.
            for k in reversed(range(d)):
                t = terms.reshape(-1, 4, n) * weights[..., k]
                terms = ((t[:, 0] + t[:, 1]) + t[:, 2]) + t[:, 3]
            answers[rows] = np.where((x[1] > x[0]).all(axis=1), terms[0], 0.0)
        return answers

    def with_noise(self, scale: float, rng: np.random.Generator) -> "UniformGrid":
        """A copy with i.i.d. ``Lap(scale)`` added to every cell."""
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale!r}")
        noisy = self.counts + rng.laplace(0.0, scale, size=self.shape)
        return UniformGrid(domain=self.domain, counts=noisy)
