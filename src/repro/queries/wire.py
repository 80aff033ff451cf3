"""The versioned plain-JSON wire codec for queries and workloads.

A single query travels as::

    {"format": "repro.query", "version": 1, "type": "range_count",
     "low": [0.1, 0.2], "high": [0.4, 0.5]}

and a workload as::

    {"format": "repro.workload", "version": 1, "queries": [<query>, ...]}

:func:`decode_query_batch` is the serving layer's single entry point: it
decodes a list of typed wire queries and reports the first entry that is
not one, with its batch index, so HTTP clients get a structured 400.  The
raw ``{"low": ..., "high": ...}`` boxes and bare symbol-code lists of 1.x
were removed in 2.0.0; the error for one names the typed replacement.
"""

from __future__ import annotations

from typing import Any, Sequence

from .types import (
    Query,
    QueryValidationError,
    RangeCount,
    StringFrequency,
    query_type_registry,
)
from .workload import Workload

__all__ = [
    "QueryDecodeError",
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "WORKLOAD_FORMAT",
    "decode_query_batch",
    "query_from_wire",
    "workload_from_wire",
]

WIRE_FORMAT = "repro.query"
WORKLOAD_FORMAT = "repro.workload"
WIRE_VERSION = 1


class QueryDecodeError(ValueError):
    """A query document failed to decode or validate.

    ``index`` is the offending position within the submitted batch (or
    ``None`` for a standalone document), so front-ends can return a
    structured error instead of an opaque whole-batch failure.
    """

    def __init__(self, message: str, *, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


def query_from_wire(data: Any) -> Query:
    """Rebuild one typed query from its ``to_wire`` document."""
    if not isinstance(data, dict):
        raise QueryDecodeError(
            f"a query document must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != WIRE_FORMAT:
        raise QueryDecodeError(f"not a query document: format={data.get('format')!r}")
    version = data.get("version")
    if version != WIRE_VERSION:
        raise QueryDecodeError(f"unsupported query version {version!r}")
    tag = data.get("type")
    if not isinstance(tag, str):
        raise QueryDecodeError(f"query type must be a string, got {tag!r}")
    query_cls = query_type_registry().get(tag)
    if query_cls is None:
        known = ", ".join(sorted(query_type_registry()))
        raise QueryDecodeError(f"unknown query type {tag!r}; known types: {known}")
    try:
        return query_cls._from_wire_payload(data)
    except QueryValidationError as exc:
        raise QueryDecodeError(f"invalid {tag} query: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise QueryDecodeError(f"malformed {tag} query document ({exc})") from None


def workload_from_wire(data: Any) -> Workload:
    """Rebuild a :class:`Workload` from its ``to_wire`` document."""
    if not isinstance(data, dict):
        raise QueryDecodeError(
            f"a workload document must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != WORKLOAD_FORMAT:
        raise QueryDecodeError(
            f"not a workload document: format={data.get('format')!r}"
        )
    version = data.get("version")
    if version != WIRE_VERSION:
        raise QueryDecodeError(f"unsupported workload version {version!r}")
    entries = data.get("queries")
    if not isinstance(entries, list):
        raise QueryDecodeError('a workload document needs a "queries" list')
    queries = []
    for i, entry in enumerate(entries):
        try:
            queries.append(query_from_wire(entry))
        except QueryDecodeError as exc:
            raise QueryDecodeError(f"workload query {i}: {exc}", index=i) from None
    return Workload(tuple(queries))


def decode_query_batch(raw_queries: Sequence[Any], *, spatial: bool) -> Workload:
    """Decode a JSON batch of typed query documents into a :class:`Workload`.

    Every entry must be a ``{"format": "repro.query", ...}`` document
    (:func:`query_from_wire`).  Raises :class:`QueryDecodeError` with the
    offending index on the first entry that does not decode.  ``spatial``
    only picks the typed replacement (``range_count`` or
    ``string_frequency``) that the error for a raw 1.x entry names.
    """
    queries: list[Query] = []
    for i, raw in enumerate(raw_queries):
        try:
            queries.append(query_from_wire(raw))
        except QueryDecodeError as exc:
            message = f"query {i} is malformed ({exc})"
            if not (isinstance(raw, dict) and raw.get("format") == WIRE_FORMAT):
                tag = (RangeCount if spatial else StringFrequency).type_tag
                message += (
                    f'; send typed {{"format": "{WIRE_FORMAT}", "version": '
                    f'{WIRE_VERSION}, "type": "{tag}", ...}} documents (raw '
                    "boxes and code lists were removed in 2.0.0)"
                )
            raise QueryDecodeError(message, index=i) from None
    return Workload(tuple(queries))
