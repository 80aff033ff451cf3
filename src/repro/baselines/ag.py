"""AG — the adaptive grid method for two-dimensional data (Qardaji et al.).

A two-level grid:

1. A coarse level-1 grid with ``m1 = max(10, ceil(sqrt(n*eps/10)/4))`` cells
   per dimension; its counts are released with budget ``alpha * eps``.
2. Each level-1 cell whose noisy count ``nc`` is large enough is re-gridded
   into ``m2 x m2`` subcells with
   ``m2 = ceil(sqrt(nc * (1 - alpha) * eps / 5))``, released with the
   remaining ``(1 - alpha) * eps`` budget.
3. Parent/child counts are reconciled by the best-linear-unbiased mean
   consistency step, then queries are answered from the refined cells.

The Figure 10 ablation scales both levels' cell counts by a factor ``r``
(per-dimension factor ``sqrt(r)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..domains.box import RangeCounter
from ..mechanisms.rng import RngLike, ensure_rng
from ..spatial.dataset import SpatialDataset
from .grid import UniformGrid

__all__ = ["AdaptiveGrid", "ag_level1_cells_per_dim", "ag_level2_cells_per_dim"]

#: Budget share of the level-1 grid.
AG_ALPHA = 0.5
#: The constant used in the level-2 granularity rule (c2 = c/2).
AG_LEVEL2_CONSTANT = 5.0
#: Queries whose overlaps with the level-1 cells are found at a time.
_QUERIES_PER_CHUNK = 1 << 16


def ag_level1_cells_per_dim(n: int, epsilon: float, size_factor: float = 1.0) -> int:
    """Level-1 granularity: a quarter of the UG guideline, at least 10."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not size_factor > 0:
        raise ValueError(f"size_factor must be positive, got {size_factor!r}")
    m = math.sqrt(max(n, 0) * epsilon / 10.0) / 4.0
    return max(10, math.ceil(math.sqrt(size_factor) * m))


def ag_level2_cells_per_dim(
    noisy_count: float, epsilon: float, alpha: float = AG_ALPHA, size_factor: float = 1.0
) -> int:
    """Level-2 granularity for one cell, from its level-1 noisy count."""
    if noisy_count <= 0:
        return 1
    m = math.sqrt(noisy_count * (1.0 - alpha) * epsilon / AG_LEVEL2_CONSTANT)
    return max(1, math.ceil(math.sqrt(size_factor) * m))


@dataclass
class AdaptiveGrid(RangeCounter):
    """The released AG synopsis: level-1 counts plus per-cell subgrids."""

    level1: UniformGrid
    #: Map from level-1 cell index to its refined subgrid (mean-consistent).
    subgrids: dict[tuple[int, int], UniformGrid]

    @property
    def ndim(self) -> int:
        """Dimensionality of the domain."""
        return self.level1.ndim

    @cached_property
    def _coarse(self) -> UniformGrid:
        """The level-1 grid with the counts of its refined cells set to 0."""
        counts = self.level1.counts.copy()
        for index in self.subgrids:
            counts[index] = 0.0
        return UniformGrid(domain=self.level1.domain, counts=counts)

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        """Refined level-1 cells answer from their subgrids; every other
        cell adds a volume fraction of its count."""
        q_lows, q_highs = self._bounds(q_lows, q_highs)
        answers = self._coarse.range_count_arrays(q_lows, q_highs)
        edges = [self.level1.edges(k) for k in range(2)]
        for start in range(0, len(q_lows), _QUERIES_PER_CHUNK):
            rows = slice(start, start + _QUERIES_PER_CHUNK)
            # A subgrid answers, in sorted cell order, only the queries that
            # overlap its cell: any other query would add +0.0.
            overlaps = [
                (e[:-1, None] < q_highs[rows, k]) & (e[1:, None] > q_lows[rows, k])
                for k, e in enumerate(edges)
            ]
            touched = [overlap.any(axis=1).tolist() for overlap in overlaps]
            for i, j in sorted(self.subgrids):
                if not (touched[0][i] and touched[1][j]):
                    continue
                hit = start + np.flatnonzero(overlaps[0][i] & overlaps[1][j])
                if hit.size:
                    grid = self.subgrids[(i, j)]
                    answers[hit] += grid.range_count_arrays(q_lows[hit], q_highs[hit])
        return answers

    @property
    def n_cells(self) -> int:
        """Total number of released cells across both levels."""
        return self.level1.n_cells + sum(g.n_cells for g in self.subgrids.values())


def _ag_histogram(
    dataset: SpatialDataset,
    epsilon: float,
    alpha: float = AG_ALPHA,
    size_factor: float = 1.0,
    rng: RngLike = None,
) -> AdaptiveGrid:
    """Build the AG synopsis of a two-dimensional dataset."""
    if dataset.ndim != 2:
        raise ValueError(f"AG is specific to 2-d data, got {dataset.ndim}-d")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    gen = ensure_rng(rng)
    eps1 = alpha * epsilon
    eps2 = (1.0 - alpha) * epsilon

    m1 = ag_level1_cells_per_dim(dataset.n, epsilon, size_factor)
    level1_exact = UniformGrid.histogram(dataset, (m1, m1))
    level1 = level1_exact.with_noise(1.0 / eps1, gen)

    # Each point's level-1 cell, found once by the half-open rule of
    # Box.contains_points; one stable sort groups every cell's points.
    i_cell, j_cell = (
        np.searchsorted(level1.edges(d), dataset.points[:, d], side="right") - 1
        for d in range(2)
    )
    cell_of = i_cell * m1 + j_cell
    by_cell = np.argsort(cell_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(cell_of, minlength=m1 * m1))))

    var1 = 2.0 / eps1**2
    var2 = 2.0 / eps2**2
    subgrids: dict[tuple[int, int], UniformGrid] = {}
    for i in range(m1):
        for j in range(m1):
            noisy = float(level1.counts[i, j])
            m2 = ag_level2_cells_per_dim(noisy, epsilon, alpha, size_factor)
            if m2 <= 1:
                continue
            cell = level1.cell_box((i, j))
            c = i * m1 + j
            points = dataset.points[by_cell[starts[c] : starts[c + 1]]]
            sub_exact = UniformGrid.histogram(SpatialDataset(points, cell), (m2, m2))
            sub = sub_exact.with_noise(1.0 / eps2, gen)
            # Mean consistency: BLUE-combine the parent's noisy count with the
            # children's noisy sum, then spread the residual over the children.
            k = m2 * m2
            child_sum = float(sub.counts.sum())
            var_sum = k * var2
            blended = (var_sum * noisy + var1 * child_sum) / (var1 + var_sum)
            sub_counts = sub.counts + (blended - child_sum) / k
            subgrids[(i, j)] = UniformGrid(domain=cell, counts=sub_counts)
    return AdaptiveGrid(level1=level1, subgrids=subgrids)
