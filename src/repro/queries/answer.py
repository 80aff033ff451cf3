"""Batch compilation and dispatch: one vectorized answer path per family.

``answer_workload(release, workload)`` is the single answering routine
behind :meth:`repro.api.Release.answer`, the HTTP service, the CLI, and
the experiment sweeps:

* spatial releases — every query compiles to axis-aligned boxes
  (:meth:`~repro.queries.types.SpatialQuery.to_boxes`), the whole batch
  is answered by **one** ``range_count_many`` call on the release's one
  engine (tree or grid), and the per-box answers land in each query's slots;
* PST releases — queries are grouped by type and each group runs one
  batched :class:`~repro.sequence.flat.FlatPST` pass
  (``frequency_many`` / ``prefix_frequency_many`` / ``conditional_rows``);
* n-gram releases — answered from the released count dictionary (the
  model's native engine; there is no array form of a dict walk).

Answers always come back as one flat ``float64`` vector in workload
order; :meth:`~repro.queries.Workload.split` recovers per-query groups.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .types import (
    Marginal1D,
    NextSymbolDistribution,
    PointCount,
    PrefixCount,
    Query,
    QueryValidationError,
    RangeCount,
    StringFrequency,
)
from .workload import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.base import Release

__all__ = [
    "UnsupportedQueryTypeError",
    "answer_workload",
    "compile_spatial_boxes",
    "supported_query_types",
]


class UnsupportedQueryTypeError(QueryValidationError):
    """The release cannot answer a query type present in the workload."""


def supported_query_types(release: "Release") -> tuple[type[Query], ...]:
    """The query classes ``release`` can answer, in wire-tag order.

    Capability is per *instance*, not just per class: a PST released
    without a ``$`` context node (tiny budgets may never split on the
    start sentinel) has no sequence-start statistics, so it drops
    :class:`PrefixCount` rather than silently answering occurrence counts.
    """
    from ..api.releases import NGramRelease, SequenceRelease, SpatialRelease

    if isinstance(release, SpatialRelease):
        return (RangeCount, PointCount, Marginal1D)
    if isinstance(release, SequenceRelease):
        # Probed on the flat child table (has_start_context) so mmap-loaded
        # releases never materialize the pointer model for a capability check.
        if not release.has_start_context():
            return (StringFrequency, NextSymbolDistribution)
        return (StringFrequency, PrefixCount, NextSymbolDistribution)
    if isinstance(release, NGramRelease):
        return (StringFrequency, NextSymbolDistribution)
    return ()


def _check_supported(release: "Release", workload: Workload) -> None:
    supported = supported_query_types(release)
    for i, query in enumerate(workload):
        if not isinstance(query, supported):
            names = ", ".join(cls.type_tag for cls in supported) or "none"
            raise UnsupportedQueryTypeError(
                f"workload query {i}: {type(release).__name__} "
                f"({release.method!r}) does not answer {query.type_tag!r} "
                f"queries; supported types: {names}",
                index=i,
            )


def compile_spatial_boxes(workload: Workload, domain) -> list:
    """The range-count boxes of a spatial workload, in answer-slot order.

    Each compiled box is exactly one slot of the flat answer vector, and
    ``to_boxes`` order matches workload order, so the batched box answers
    *are* the flat answers — no reassembly needed.
    """
    boxes = []
    for query in workload:
        boxes.extend(query.to_boxes(domain))
    return boxes


def _answer_spatial(release, workload: Workload, domain) -> np.ndarray:
    """Compile every spatial query to boxes; one batched range-count call."""
    boxes = compile_spatial_boxes(workload, domain)
    if not boxes:
        return np.empty(0, dtype=np.float64)
    return np.asarray(release.range_count_many(boxes), dtype=np.float64)


def _answer_pst(release, workload: Workload, domain) -> np.ndarray:
    """Group by type; one batched FlatPST pass per group present."""
    flat = release.flat()
    offsets = np.concatenate(([0], np.cumsum(workload.result_sizes(domain))))
    out = np.zeros(int(offsets[-1]), dtype=np.float64)

    freq_idx = [i for i, q in enumerate(workload) if isinstance(q, StringFrequency)]
    if freq_idx:
        answers = flat.frequency_many([workload[i].codes for i in freq_idx])
        out[offsets[freq_idx]] = answers

    prefix_idx = [i for i, q in enumerate(workload) if isinstance(q, PrefixCount)]
    if prefix_idx:
        answers = flat.prefix_frequency_many([workload[i].codes for i in prefix_idx])
        out[offsets[prefix_idx]] = answers

    next_idx = [
        i for i, q in enumerate(workload) if isinstance(q, NextSymbolDistribution)
    ]
    if next_idx:
        rows = flat.conditional_rows(
            [workload[i].context for i in next_idx],
            anchored=np.asarray([workload[i].anchored for i in next_idx]),
        )
        for j, i in enumerate(next_idx):
            out[offsets[i] : offsets[i + 1]] = rows[j]
    return out


def _answer_ngram(release, workload: Workload, domain) -> np.ndarray:
    """Answer from the released gram dictionary (the model's native walk)."""
    model = release.model
    offsets = np.concatenate(([0], np.cumsum(workload.result_sizes(domain))))
    out = np.zeros(int(offsets[-1]), dtype=np.float64)
    for i, query in enumerate(workload):
        if isinstance(query, StringFrequency):
            out[offsets[i]] = model.string_frequency(query.codes)
        else:  # NextSymbolDistribution
            if query.anchored:
                # Dropping the anchor would answer with a materially
                # different (occurrence-based) distribution; fail loudly
                # like PrefixCount does for the same missing-$ condition.
                raise UnsupportedQueryTypeError(
                    f"workload query {i}: the n-gram baseline has no "
                    "sequence-start ($) statistics; anchored next-symbol "
                    "queries are unavailable",
                    index=i,
                )
            out[offsets[i] : offsets[i + 1]] = model.conditional_row(query.context)
    return out


def answer_workload(release: "Release", workload: Workload) -> np.ndarray:
    """Answer a validated workload with one vectorized dispatch per family.

    Validates every query against the release's ``query_domain`` first
    (raising :class:`~repro.queries.QueryValidationError` with the
    offending index), then routes the whole batch to the release family's
    batched engine.  Returns the flat ``float64`` answer vector.
    """
    from ..api.releases import NGramRelease, SequenceRelease, SpatialRelease

    workload = Workload.coerce(workload)
    _check_supported(release, workload)
    domain = release.query_domain
    workload.validate(domain)
    if isinstance(release, SpatialRelease):
        return _answer_spatial(release, workload, domain)
    if isinstance(release, SequenceRelease):
        return _answer_pst(release, workload, domain)
    if isinstance(release, NGramRelease):
        return _answer_ngram(release, workload, domain)
    raise UnsupportedQueryTypeError(
        f"{type(release).__name__} does not support the typed query API"
    )
