"""Uniform grids over box domains — the substrate of the grid baselines.

A :class:`UniformGrid` stores one count per cell of a regular grid and
answers range-count queries with per-dimension fractional weighting: cells
fully inside the query contribute their whole count, boundary cells a
volume fraction (the same uniformity assumption as §2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domains.box import Box
from ..spatial.dataset import SpatialDataset

__all__ = ["UniformGrid"]


@dataclass
class UniformGrid:
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

    def range_count(self, query: Box) -> float:
        """Answer a range-count query with fractional boundary cells."""
        if query.ndim != self.domain.ndim:
            raise ValueError(
                f"query has {query.ndim} dims, grid has {self.domain.ndim}"
            )
        weights: list[np.ndarray] = []
        slices: list[slice] = []
        for d in range(self.domain.ndim):
            edges = self.edges(d)
            lo = max(query.low[d], edges[0])
            hi = min(query.high[d], edges[-1])
            if hi <= lo:
                return 0.0
            first = int(np.searchsorted(edges, lo, side="right")) - 1
            last = int(np.searchsorted(edges, hi, side="left"))
            first = max(first, 0)
            last = min(last, self.shape[d])
            if last <= first:
                return 0.0
            cell_lo = edges[first:last]
            cell_hi = edges[first + 1 : last + 1]
            overlap = np.minimum(cell_hi, hi) - np.maximum(cell_lo, lo)
            weights.append(overlap / (cell_hi - cell_lo))
            slices.append(slice(first, last))
        block = self.counts[tuple(slices)]
        for w in reversed(weights):
            block = block @ w
        return float(block)

    def with_noise(self, scale: float, rng: np.random.Generator) -> "UniformGrid":
        """A copy with i.i.d. ``Lap(scale)`` added to every cell."""
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale!r}")
        noisy = self.counts + rng.laplace(0.0, scale, size=self.shape)
        return UniformGrid(domain=self.domain, counts=noisy)
