"""Unified workload accuracy metrics (Section 6.1's measure, generalized).

The paper scores a synopsis by the *relative error* of each workload
answer against the exact answer, with a smoothing floor:

    RE = |estimate - exact| / max(exact, smoothing)

where ``smoothing`` is 0.1% of the dataset cardinality (§6.1, following
Qardaji et al. / Privelet).  This module applies that measure to any
typed :class:`~repro.queries.Workload` against any release, reporting
both the mean (the paper's headline number) and the max (the tail a
serving SLO cares about) in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..spatial.metrics import SMOOTHING_FRACTION
from .workload import Workload

__all__ = [
    "SMOOTHING_FRACTION",
    "WorkloadScore",
    "relative_errors",
    "score_workload",
    "workload_error",
]


@dataclass(frozen=True)
class WorkloadScore:
    """Mean and max relative error of one workload evaluation."""

    mean_error: float
    max_error: float
    n_answers: int

    def __float__(self) -> float:
        return self.mean_error


def relative_errors(
    estimates: np.ndarray, exacts: np.ndarray, smoothing: float
) -> np.ndarray:
    """Per-answer smoothed relative errors (vectorized §6.1 measure)."""
    estimates = np.asarray(estimates, dtype=float)
    exacts = np.asarray(exacts, dtype=float)
    if estimates.shape != exacts.shape:
        raise ValueError(
            f"shape mismatch: {estimates.shape} estimates vs {exacts.shape} exacts"
        )
    if estimates.size == 0:
        raise ValueError("workload must contain at least one answer")
    if smoothing <= 0:
        raise ValueError(f"smoothing must be positive, got {smoothing!r}")
    return np.abs(estimates - exacts) / np.maximum(exacts, smoothing)


def _estimates(synopsis: Any, workload: Workload | Sequence[Any]) -> np.ndarray:
    """The synopsis's flat answers for ``workload``.

    Releases answer through the typed path; plain synopsis objects (the
    ablation builders may return bare trees or grids) answer the workload's
    compiled boxes with their ``range_count_many``.
    """
    from .answer import compile_spatial_boxes
    from .types import RangeCount

    answer = getattr(synopsis, "answer", None)
    if answer is not None:
        return np.asarray(answer(workload), dtype=float)
    workload = Workload.coerce(workload)
    domain = getattr(synopsis, "query_domain", None)
    if domain is None and any(not isinstance(q, RangeCount) for q in workload):
        raise ValueError(
            "a synopsis without a query_domain can only score range-count "
            "workloads (point/marginal queries compile against the domain)"
        )
    boxes = compile_spatial_boxes(workload, domain)
    return np.asarray(synopsis.range_count_many(boxes), dtype=float)


def score_workload(
    synopsis: Any,
    workload: Workload | Sequence[Any],
    exacts: np.ndarray,
    smoothing: float,
) -> WorkloadScore:
    """Mean/max relative error of ``synopsis`` on a precomputed workload.

    ``exacts`` is the flat vector of exact answers (one per answer slot,
    matching :meth:`Workload.result_size`); experiments compute it once
    per sweep and reuse it across methods, budgets, and repetitions.
    """
    errors = relative_errors(_estimates(synopsis, workload), exacts, smoothing)
    return WorkloadScore(
        mean_error=float(errors.mean()),
        max_error=float(errors.max()),
        n_answers=int(errors.size),
    )


def workload_error(
    synopsis: Any,
    workload: Workload | Sequence[Any],
    exacts: np.ndarray,
    smoothing: float,
) -> float:
    """The paper's headline number: mean relative error over the workload."""
    return score_workload(synopsis, workload, exacts, smoothing).mean_error
