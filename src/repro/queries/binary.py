"""The packed binary wire form for workload batches (v1).

The JSON codec (:mod:`repro.queries.wire`) pays a Python dict hop per
query; a 10k-box batch spends more time in ``json.loads`` and
``RangeCount.__post_init__`` than in the flat engine answering it.  The
binary form packs a batch as homogeneous *sections* — a query-type tag
byte plus fixed-width little-endian operand columns — so the decoder is a
handful of ``np.frombuffer`` views, and an all-range-count payload decodes
straight into the ``(n, d)`` bound matrices
:meth:`~repro.spatial.flat.FlatHistogram.range_count_arrays` wants,
without building a single query object.

Request layout (all integers little-endian)::

    magic    4 bytes  b"RPWB"
    version  uint8    1
    pad      uint8
    n_sect   uint16   number of sections
    sections, each:
        tag      uint8    query-type code (see _TAG_CODES)
        pad      uint8
        width    uint16   operand width (ndim for spatial tags, else 0)
        count    uint32   queries in this section
        columns  type-specific fixed-width arrays (see _read_section)

Workload order is section order: a mixed batch is encoded as runs of
consecutive same-type queries, so answers come back in exactly the
submitted order, like the JSON wire.

Response layout::

    magic    4 bytes  b"RPAB"
    version  uint8    1
    pad      3 bytes
    n_query  uint32
    n_value  uint32
    offsets  uint32[n_query + 1]   per-query slots into the value vector
    values   float64[n_value]      the exact `Release.answer` floats

Answers travel as raw IEEE-754 doubles, so served values are trivially
bit-identical to in-process answers — no repr round-trip involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
from .wire import QueryDecodeError
from .workload import Workload

__all__ = [
    "BINARY_ANSWERS_CONTENT_TYPE",
    "BINARY_WIRE_CONTENT_TYPE",
    "BINARY_WIRE_VERSION",
    "PackedRangeCounts",
    "decode_binary_answers",
    "decode_binary_workload",
    "encode_binary_answers",
    "encode_binary_workload",
]

BINARY_WIRE_VERSION = 1
BINARY_WIRE_CONTENT_TYPE = "application/x-repro-workload"
BINARY_ANSWERS_CONTENT_TYPE = "application/x-repro-answers"

_REQ_MAGIC = b"RPWB"
_RESP_MAGIC = b"RPAB"

_TAG_CODES: dict[str, int] = {
    "range_count": 1,
    "point_count": 2,
    "marginal1d": 3,
    "string_frequency": 4,
    "prefix_count": 5,
    "next_symbol_distribution": 6,
}
_TAG_NAMES = {code: name for name, code in _TAG_CODES.items()}


@dataclass(frozen=True)
class PackedRangeCounts:
    """A decoded all-range-count batch kept in columnar form.

    The serving fast path: ``(n, d)`` bound matrices that go straight to
    every spatial release's ``range_count_arrays`` with no per-query
    objects.  ``validate`` applies exactly the checks the typed path
    applies (finiteness, positive extent at construction; dimensionality
    against the domain).
    """

    q_lows: np.ndarray
    q_highs: np.ndarray

    def __len__(self) -> int:
        return int(self.q_lows.shape[0])

    @property
    def ndim(self) -> int:
        return int(self.q_lows.shape[1])

    def validate(self, domain) -> None:
        """Vectorized equivalent of per-query construction + validation."""
        from ..domains.box import Box

        if not isinstance(domain, Box):
            raise QueryValidationError(
                "a packed range-count batch validates against a Box domain, "
                f"got {type(domain).__name__}"
            )
        finite = np.isfinite(self.q_lows) & np.isfinite(self.q_highs)
        if not finite.all():
            index = int(np.nonzero(~finite.all(axis=1))[0][0])
            raise QueryValidationError(
                f"query {index}: bounds must contain only finite values",
                index=index,
            )
        ordered = (self.q_lows < self.q_highs).all(axis=1)
        if not ordered.all():
            index = int(np.nonzero(~ordered)[0][0])
            raise QueryValidationError(
                f"query {index}: degenerate extent (low must be < high)",
                index=index,
            )
        if self.ndim != domain.ndim:
            raise QueryValidationError(
                f"queries have {self.ndim} dims but the release domain has "
                f"{domain.ndim}"
            )


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _encode_section(tag: str, queries: list[Query], out: list[bytes]) -> None:
    count = len(queries)
    if tag == "range_count":
        lows = np.asarray([q.low for q in queries], dtype="<f8")
        highs = np.asarray([q.high for q in queries], dtype="<f8")
        width = lows.shape[1]
        cols = [lows.tobytes(), highs.tobytes()]
    elif tag == "point_count":
        points = np.asarray([q.point for q in queries], dtype="<f8")
        fractions = np.asarray([q.cell_fraction for q in queries], dtype="<f8")
        width = points.shape[1]
        cols = [points.tobytes(), fractions.tobytes()]
    elif tag == "marginal1d":
        axes = np.asarray([q.axis for q in queries], dtype="<u4")
        n_edges = np.asarray([len(q.edges) for q in queries], dtype="<u4")
        edges = np.asarray(
            [e for q in queries for e in q.edges], dtype="<f8"
        )
        width = 0
        cols = [axes.tobytes(), n_edges.tobytes(), edges.tobytes()]
    elif tag in ("string_frequency", "prefix_count"):
        lengths = np.asarray([len(q.codes) for q in queries], dtype="<u4")
        codes = np.asarray([c for q in queries for c in q.codes], dtype="<i8")
        width = 0
        cols = [lengths.tobytes(), codes.tobytes()]
    elif tag == "next_symbol_distribution":
        anchored = np.asarray([q.anchored for q in queries], dtype="u1")
        lengths = np.asarray([len(q.context) for q in queries], dtype="<u4")
        codes = np.asarray(
            [c for q in queries for c in q.context], dtype="<i8"
        )
        width = 0
        cols = [anchored.tobytes(), lengths.tobytes(), codes.tobytes()]
    else:  # pragma: no cover - guarded by _TAG_CODES lookup
        raise QueryDecodeError(f"query type {tag!r} has no binary encoding")
    out.append(
        np.asarray(
            [(_TAG_CODES[tag], 0, width, count)],
            dtype=[("tag", "u1"), ("pad", "u1"), ("width", "<u2"), ("count", "<u4")],
        ).tobytes()
    )
    out.extend(cols)


def encode_binary_workload(workload: Workload | Sequence[Query]) -> bytes:
    """Encode a workload as the packed binary wire form.

    Consecutive same-type queries become one section, so any workload
    round-trips with its order intact; an all-one-type batch is a single
    section and decodes columnar.
    """
    workload = Workload.coerce(workload)
    sections: list[tuple[str, list[Query]]] = []
    for query in workload:
        tag = query.type_tag
        if tag not in _TAG_CODES:
            raise QueryDecodeError(f"query type {tag!r} has no binary encoding")
        if sections and sections[-1][0] == tag:
            sections[-1][1].append(query)
        else:
            sections.append((tag, [query]))
    if len(sections) > 0xFFFF:
        raise QueryDecodeError(
            f"workload needs {len(sections)} sections; the binary wire "
            "carries at most 65535 (batch same-type queries together)"
        )
    out: list[bytes] = [
        _REQ_MAGIC,
        bytes([BINARY_WIRE_VERSION, 0]),
        np.uint16(len(sections)).astype("<u2").tobytes(),
    ]
    for tag, queries in sections:
        _encode_section(tag, queries, out)
    return b"".join(out)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


class _Cursor:
    """Bounds-checked sequential reads over the payload buffer."""

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.buf):
            raise QueryDecodeError(
                f"binary workload is truncated reading {what} "
                f"(need {n} bytes at offset {self.pos}, have "
                f"{len(self.buf) - self.pos})"
            )
        view = memoryview(self.buf)[self.pos : self.pos + n]
        self.pos += n
        return view

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count, what), dtype=dt)


def _read_section(cur: _Cursor) -> tuple[str, int, list]:
    head = cur.array(
        [("tag", "u1"), ("pad", "u1"), ("width", "<u2"), ("count", "<u4")],
        1,
        "section header",
    )[0]
    tag = _TAG_NAMES.get(int(head["tag"]))
    if tag is None:
        raise QueryDecodeError(f"unknown binary query tag {int(head['tag'])}")
    width = int(head["width"])
    count = int(head["count"])
    if tag in ("range_count", "point_count") and width == 0:
        raise QueryDecodeError(f"{tag} section declares zero-width operands")
    if tag == "range_count":
        lows = cur.array("<f8", count * width, "range lows").reshape(count, width)
        highs = cur.array("<f8", count * width, "range highs").reshape(count, width)
        return tag, count, [lows, highs]
    if tag == "point_count":
        points = cur.array("<f8", count * width, "points").reshape(count, width)
        fractions = cur.array("<f8", count, "cell fractions")
        return tag, count, [points, fractions]
    if tag == "marginal1d":
        axes = cur.array("<u4", count, "axes")
        n_edges = cur.array("<u4", count, "edge counts")
        edges = cur.array("<f8", int(n_edges.sum()), "edges")
        return tag, count, [axes, n_edges, edges]
    if tag in ("string_frequency", "prefix_count"):
        lengths = cur.array("<u4", count, "code lengths")
        codes = cur.array("<i8", int(lengths.sum()), "codes")
        return tag, count, [lengths, codes]
    # next_symbol_distribution
    anchored = cur.array("u1", count, "anchor flags")
    lengths = cur.array("<u4", count, "context lengths")
    codes = cur.array("<i8", int(lengths.sum()), "codes")
    return tag, count, [anchored, lengths, codes]


def _materialize(tag: str, count: int, cols: list, queries: list[Query]) -> None:
    """Typed query objects for one section (the non-columnar path)."""
    try:
        if tag == "range_count":
            lows, highs = cols
            for i in range(count):
                queries.append(
                    RangeCount(low=tuple(lows[i]), high=tuple(highs[i]))
                )
        elif tag == "point_count":
            points, fractions = cols
            for i in range(count):
                queries.append(
                    PointCount(
                        point=tuple(points[i]), cell_fraction=float(fractions[i])
                    )
                )
        elif tag == "marginal1d":
            axes, n_edges, edges = cols
            offsets = np.concatenate(([0], np.cumsum(n_edges, dtype=np.int64)))
            for i in range(count):
                queries.append(
                    Marginal1D(
                        axis=int(axes[i]),
                        edges=tuple(edges[offsets[i] : offsets[i + 1]]),
                    )
                )
        elif tag in ("string_frequency", "prefix_count"):
            lengths, codes = cols
            cls = StringFrequency if tag == "string_frequency" else PrefixCount
            offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
            for i in range(count):
                queries.append(
                    cls(codes=tuple(int(c) for c in codes[offsets[i] : offsets[i + 1]]))
                )
        else:  # next_symbol_distribution
            anchored, lengths, codes = cols
            offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
            for i in range(count):
                queries.append(
                    NextSymbolDistribution(
                        context=tuple(
                            int(c) for c in codes[offsets[i] : offsets[i + 1]]
                        ),
                        anchored=bool(anchored[i]),
                    )
                )
    except QueryValidationError as exc:
        raise QueryDecodeError(
            f"query {len(queries)}: invalid {tag} operands ({exc})",
            index=len(queries),
        ) from None


def decode_binary_workload(payload: bytes) -> PackedRangeCounts | Workload:
    """Decode a binary batch; columnar fast form when it's all range counts.

    A payload whose only section is ``range_count`` returns a
    :class:`PackedRangeCounts` (zero query objects built); anything else
    returns a typed :class:`Workload` equivalent to the JSON decode of
    the same queries.  Raises :class:`~repro.queries.wire.QueryDecodeError`
    on malformed bytes.
    """
    if len(payload) < 8 or payload[:4] != _REQ_MAGIC:
        raise QueryDecodeError(
            "not a binary workload payload (bad magic); send "
            f"Content-Type {BINARY_WIRE_CONTENT_TYPE} only with the packed "
            "binary encoding"
        )
    version = payload[4]
    if version != BINARY_WIRE_VERSION:
        raise QueryDecodeError(f"unsupported binary wire version {version}")
    n_sections = int(np.frombuffer(payload[6:8], dtype="<u2")[0])
    cur = _Cursor(payload)
    cur.pos = 8
    sections = [_read_section(cur) for _ in range(n_sections)]
    if cur.pos != len(payload):
        raise QueryDecodeError(
            f"binary workload has {len(payload) - cur.pos} trailing bytes"
        )
    if len(sections) == 1 and sections[0][0] == "range_count":
        lows, highs = sections[0][2]
        return PackedRangeCounts(
            q_lows=np.ascontiguousarray(lows), q_highs=np.ascontiguousarray(highs)
        )
    queries: list[Query] = []
    for tag, count, cols in sections:
        _materialize(tag, count, cols, queries)
    return Workload(tuple(queries))


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------


def encode_binary_answers(values: np.ndarray, offsets: np.ndarray) -> bytes:
    """Pack a flat answer vector + per-query slot offsets as raw doubles."""
    values = np.ascontiguousarray(values, dtype="<f8")
    offsets = np.ascontiguousarray(offsets, dtype="<u4")
    n_queries = offsets.shape[0] - 1
    head = np.asarray(
        [(n_queries, values.shape[0])], dtype=[("q", "<u4"), ("v", "<u4")]
    )
    return b"".join(
        [
            _RESP_MAGIC,
            bytes([BINARY_WIRE_VERSION, 0, 0, 0]),
            head.tobytes(),
            offsets.tobytes(),
            values.tobytes(),
        ]
    )


def decode_binary_answers(payload: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``(values, offsets)`` from a binary answer payload (client side)."""
    if len(payload) < 16 or payload[:4] != _RESP_MAGIC:
        raise QueryDecodeError("not a binary answers payload (bad magic)")
    if payload[4] != BINARY_WIRE_VERSION:
        raise QueryDecodeError(f"unsupported binary answers version {payload[4]}")
    cur = _Cursor(payload)
    cur.pos = 8
    head = cur.array([("q", "<u4"), ("v", "<u4")], 1, "answer header")[0]
    offsets = cur.array("<u4", int(head["q"]) + 1, "offsets")
    values = cur.array("<f8", int(head["v"]), "values")
    if cur.pos != len(payload):
        raise QueryDecodeError(
            f"binary answers payload has {len(payload) - cur.pos} trailing bytes"
        )
    return values, offsets
