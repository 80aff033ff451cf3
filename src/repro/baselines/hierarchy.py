"""Hierarchy — fixed-height hierarchical histograms (Qardaji et al., PVLDB'13).

A complete tree over a uniform leaf grid: the leaf grid has ``m`` cells per
dimension and the tree has ``h`` levels, with per-level per-dimension
branching factors distributing ``log2(m)`` as evenly as possible (the
paper's 2-d default is ``h = 3`` with branching 8 per dimension per level,
i.e. fanout 64, leaf grid 64x64).  Every non-root level's counts are
released with budget ``eps/(h-1)``, then Hay-style constrained inference
(bottom-up BLUE aggregation + top-down mean consistency, generalized to
variable fanout) produces the final leaf estimates.

Figure 11 varies ``h`` at fixed leaf granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domains.box import RangeCounter
from ..mechanisms.rng import RngLike, ensure_rng
from ..spatial.dataset import SpatialDataset
from .grid import UniformGrid

__all__ = ["HierarchyHistogram", "split_branchings"]


def split_branchings(leaf_exponent: int, levels: int) -> list[int]:
    """Distribute ``leaf_exponent`` powers of two over ``levels`` splits.

    Returns per-level per-dimension branching factors (each a power of two,
    product ``2**leaf_exponent``), larger splits first — e.g. exponent 6 over
    2 levels -> ``[8, 8]``; over 4 levels -> ``[4, 2, 2, 2]``.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels!r}")
    if leaf_exponent < levels:
        raise ValueError(
            f"cannot split 2^{leaf_exponent} cells into {levels} non-trivial levels"
        )
    base, extra = divmod(leaf_exponent, levels)
    exponents = [base + 1] * extra + [base] * (levels - extra)
    return [2**e for e in exponents]


@dataclass
class HierarchyHistogram(RangeCounter):
    """The released synopsis: consistent leaf grid (+ raw per-level counts)."""

    leaf_grid: UniformGrid
    levels: int
    branchings: list[int]

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        """Answer from the consistent leaf grid with fractional boundaries."""
        return self.leaf_grid.range_count_arrays(q_lows, q_highs)


def _pool(counts: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate a d-dim grid by summing ``factor``-blocks along every axis."""
    out = counts
    for axis in range(counts.ndim):
        m = out.shape[axis]
        new_shape = (
            out.shape[:axis] + (m // factor, factor) + out.shape[axis + 1 :]
        )
        out = out.reshape(new_shape).sum(axis=axis + 1)
    return out


def _expand(values: np.ndarray, factor: int) -> np.ndarray:
    """Repeat every entry into a ``factor``-block along every axis."""
    out = values
    for axis in range(values.ndim):
        out = np.repeat(out, factor, axis=axis)
    return out


def _hierarchy_histogram(
    dataset: SpatialDataset,
    epsilon: float,
    height: int = 3,
    leaf_cells_exponent: int = 6,
    rng: RngLike = None,
) -> HierarchyHistogram:
    """Build the Hierarchy synopsis.

    Parameters
    ----------
    height:
        Number of tree levels ``h`` (root + h-1 published levels).
    leaf_cells_exponent:
        The leaf grid has ``2**leaf_cells_exponent`` cells per dimension
        (default 64, the paper's 2-d setting).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if height < 2:
        raise ValueError(f"height must be >= 2, got {height!r}")
    gen = ensure_rng(rng)
    d = dataset.ndim
    levels = height - 1  # published levels
    branchings = split_branchings(leaf_cells_exponent, levels)
    eps_level = epsilon / levels
    scale = 1.0 / eps_level
    noise_var = 2.0 * scale**2

    # Exact counts at the finest level, then aggregate upward.
    m_leaf = 2**leaf_cells_exponent
    exact_leaf = UniformGrid.histogram(dataset, (m_leaf,) * d).counts
    exact_levels = [exact_leaf]  # finest first
    for b in reversed(branchings[1:]):
        exact_levels.append(_pool(exact_levels[-1], b))
    exact_levels.reverse()  # coarsest (level 1) ... finest (level h-1)

    noisy_levels = [
        counts + gen.laplace(0.0, scale, size=counts.shape)
        for counts in exact_levels
    ]

    # --- Constrained inference, generalized to variable fanout -------------
    # Bottom-up: BLUE-combine each node's own noisy count with the sum of its
    # children's combined estimates.
    z = [None] * levels
    z_var = [None] * levels
    z[-1] = noisy_levels[-1]
    z_var[-1] = np.full(noisy_levels[-1].shape, noise_var)
    for lvl in range(levels - 2, -1, -1):
        b = branchings[lvl + 1]
        child_sum = _pool(z[lvl + 1], b)
        child_var = _pool(z_var[lvl + 1], b)
        own = noisy_levels[lvl]
        w_own = child_var / (noise_var + child_var)
        z[lvl] = w_own * own + (1.0 - w_own) * child_sum
        z_var[lvl] = noise_var * child_var / (noise_var + child_var)

    # Top-down: distribute each parent's residual over its children in
    # proportion to the children's variances (mean consistency).
    h_est = z[0]
    for lvl in range(1, levels):
        b = branchings[lvl]
        kids = z[lvl]
        kid_var = z_var[lvl]
        parent_minus_sum = h_est - _pool(kids, b)
        var_sum = _pool(kid_var, b)
        share = kid_var / _expand(var_sum, b)
        h_est = kids + share * _expand(parent_minus_sum, b)

    leaf_grid = UniformGrid(domain=dataset.domain, counts=h_est)
    return HierarchyHistogram(leaf_grid=leaf_grid, levels=height, branchings=branchings)
