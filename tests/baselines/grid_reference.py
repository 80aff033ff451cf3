"""Frozen per-box range counts of the grid synopses.

``UniformGrid.range_count`` and ``AdaptiveGrid.range_count`` as they were
before both synopses answered through one batch engine,
``range_count_arrays``: one box at a time, in Python.  The bodies are kept
verbatim, except that the AG walk asks its subgrids through the frozen
grid count instead of the engine.  The property tests hold the engine to
them.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.ag import AdaptiveGrid
from repro.baselines.grid import UniformGrid
from repro.domains import Box


def reference_grid_range_count(self: UniformGrid, query: Box) -> float:
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


def reference_ag_range_count(self: AdaptiveGrid, query: Box) -> float:
    """Sum refined cells where available, level-1 cells elsewhere."""
    answer = 0.0
    m1 = self.level1.shape[0]
    for i in range(m1):
        for j in range(self.level1.shape[1]):
            cell = self.level1.cell_box((i, j))
            if not cell.intersects(query):
                continue
            sub = self.subgrids.get((i, j))
            if sub is not None:
                answer += reference_grid_range_count(sub, query)
            elif query.contains_box(cell):
                answer += float(self.level1.counts[i, j])
            else:
                answer += float(self.level1.counts[i, j]) * cell.overlap_fraction(query)
    return answer
