"""UG — the uniform grid method (Qardaji, Yang, Li; ICDE 2013).

Partitions the domain into ``m^d`` equal cells with

    m = ceil( (n * eps / 10) ** (2 / (d + 2)) )

cells per dimension, and releases every cell count with ``Lap(1/eps)`` noise
(sensitivity 1).  The Figure 9 ablation scales the *total* cell count by a
factor ``r``, i.e. multiplies the per-dimension count by ``r**(1/d)``.
"""

from __future__ import annotations

import math

from ..mechanisms.rng import RngLike, ensure_rng
from ..spatial.dataset import SpatialDataset
from .grid import UniformGrid

__all__ = ["ug_cells_per_dim"]

#: The constant ``c`` in Qardaji et al.'s guideline ``m = sqrt(n eps / c)``.
UG_CONSTANT = 10.0


def ug_cells_per_dim(
    n: int, ndim: int, epsilon: float, size_factor: float = 1.0
) -> int:
    """The per-dimension grid granularity of UG.

    ``size_factor`` is the Figure 9 knob ``r``: the grid has roughly
    ``r * m^d`` cells, realized as ``ceil(r^(1/d) * m)`` per dimension.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n!r}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not size_factor > 0:
        raise ValueError(f"size_factor must be positive, got {size_factor!r}")
    m = (n * epsilon / UG_CONSTANT) ** (2.0 / (ndim + 2.0))
    return max(1, math.ceil(size_factor ** (1.0 / ndim) * m))


def _ug_histogram(
    dataset: SpatialDataset,
    epsilon: float,
    size_factor: float = 1.0,
    rng: RngLike = None,
) -> UniformGrid:
    """The UG synopsis: an equal-cell grid of ε-DP noisy counts."""
    gen = ensure_rng(rng)
    m = ug_cells_per_dim(dataset.n, dataset.ndim, epsilon, size_factor)
    exact = UniformGrid.histogram(dataset, (m,) * dataset.ndim)
    return exact.with_noise(1.0 / epsilon, gen)
