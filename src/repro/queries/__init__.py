"""First-class queries and workloads: typed, validated, versioned, batched.

The query subsystem makes the paper's evaluation objects — range counts
over spatial decompositions, string statistics over sequence models —
first-class values shared by the library, the experiments, the CLI, and
the HTTP service:

* :mod:`~repro.queries.types` — the six frozen query types with
  ``validate(domain)`` and a versioned wire form;
* :mod:`~repro.queries.workload` — the ordered :class:`Workload` batch
  container;
* :mod:`~repro.queries.answer` — compilation to the flat engines and the
  single vectorized dispatch behind :meth:`repro.api.Release.answer`;
* :mod:`~repro.queries.wire` — the versioned plain-JSON codec;
* :mod:`~repro.queries.metrics` — workload mean/max relative error.

Example::

    from repro.queries import Marginal1D, RangeCount, Workload

    workload = Workload.of([
        RangeCount(low=(0.1, 0.1), high=(0.4, 0.5)),
        Marginal1D.regular(axis=0, n_bins=8, low=0.0, high=1.0),
    ])
    answers = release.answer(workload)          # one flat float64 vector
    per_query = workload.split(answers, release.query_domain)
"""

from .answer import UnsupportedQueryTypeError, answer_workload, supported_query_types
from .binary import (
    BINARY_ANSWERS_CONTENT_TYPE,
    BINARY_WIRE_CONTENT_TYPE,
    PackedRangeCounts,
    decode_binary_answers,
    decode_binary_workload,
    encode_binary_answers,
    encode_binary_workload,
)
from .metrics import (
    SMOOTHING_FRACTION,
    WorkloadScore,
    relative_errors,
    score_workload,
    workload_error,
)
from .types import (
    Marginal1D,
    NextSymbolDistribution,
    PointCount,
    PrefixCount,
    Query,
    QueryValidationError,
    RangeCount,
    StringFrequency,
    query_type_registry,
)
from .wire import (
    QueryDecodeError,
    decode_query_batch,
    query_from_wire,
    workload_from_wire,
)
from .workload import Workload

__all__ = [
    "BINARY_ANSWERS_CONTENT_TYPE",
    "BINARY_WIRE_CONTENT_TYPE",
    "Marginal1D",
    "NextSymbolDistribution",
    "PackedRangeCounts",
    "PointCount",
    "PrefixCount",
    "Query",
    "QueryDecodeError",
    "QueryValidationError",
    "RangeCount",
    "SMOOTHING_FRACTION",
    "StringFrequency",
    "UnsupportedQueryTypeError",
    "Workload",
    "WorkloadScore",
    "answer_workload",
    "decode_binary_answers",
    "decode_binary_workload",
    "decode_query_batch",
    "encode_binary_answers",
    "encode_binary_workload",
    "query_from_wire",
    "query_type_registry",
    "relative_errors",
    "score_workload",
    "supported_query_types",
    "workload_error",
    "workload_from_wire",
]
