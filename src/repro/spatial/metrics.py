"""Accuracy metrics for spatial synopses (Section 6.1).

The paper measures the *relative error* of an answer ``qhat`` against the
exact answer ``q`` with a smoothing floor:

    RE = |qhat - q| / max(q, smoothing)

where ``smoothing`` is 0.1% of the dataset cardinality.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..domains.box import Box
from .dataset import SpatialDataset

__all__ = [
    "relative_error",
    "average_relative_error",
    "SMOOTHING_FRACTION",
]

#: Δ = 0.1% of n, per Section 6.1 (following Qardaji et al. / Privelet).
SMOOTHING_FRACTION = 0.001


def relative_error(estimate: float, exact: float, smoothing: float) -> float:
    """``|estimate - exact| / max(exact, smoothing)``."""
    if smoothing <= 0:
        raise ValueError(f"smoothing must be positive, got {smoothing!r}")
    return abs(estimate - exact) / max(exact, smoothing)


def average_relative_error(
    answer: Callable[[Box], float],
    dataset: SpatialDataset,
    queries: Sequence[Box],
    smoothing_fraction: float = SMOOTHING_FRACTION,
) -> float:
    """Mean relative error of ``answer`` over a query workload.

    ``answer`` is any synopsis's range-count function; exact answers come
    from the dataset itself.
    """
    if not queries:
        raise ValueError("workload must contain at least one query")
    smoothing = smoothing_fraction * dataset.n
    total = 0.0
    for query in queries:
        exact = dataset.count_in(query)
        total += relative_error(answer(query), exact, smoothing)
    return total / len(queries)
