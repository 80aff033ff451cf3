"""The v2 binary release artifact: memory-mappable columnar segments.

A v1 artifact is one JSON envelope that must be fully parsed before the
first answer.  The flat query engines are already structure-of-arrays
(:class:`~repro.spatial.flat.FlatHistogram`,
:class:`~repro.sequence.flat.FlatPST`), so the v2 format serializes
exactly those arrays — one ``.npy`` segment per array inside a single
file — and the loader hands ``np.memmap`` views of the same file straight
to the engines.  ``warm()`` then costs an mmap plus header validation
instead of a parse: a 100k-node release is queryable in milliseconds, and
N server workers mapping the same file share one copy in page cache.

On-disk layout (all integers little-endian)::

    magic     8 bytes   b"REPROBIN"
    version   uint32    2
    hdr_len   uint32    length of the JSON header
    header    JSON      {"format": "repro.release_artifact", "version": 2,
                         "kind": ..., "method": ..., "epsilon_spent": ...,
                         "meta": {...}, "segments": [
                             {"name": ..., "offset": ..., "length": ...}]},
                        padded with trailing spaces to end on a 64-byte
                        file offset
    segments  bytes     one np.lib.format (.npy v1) stream per array, each
                        after zero bytes that start it on a 64-byte file
                        offset; segment offsets are relative to the end of
                        the header block, and multiples of 64
    footer    40 bytes  b"SHA2-256" + sha256(everything before the footer)

The footer digest covers the entire file, so truncation or a flipped bit
anywhere — header or array data — fails the load with
:class:`ArtifactIntegrityError` instead of silently corrupting answers.

An ``.npy`` header ends on a 64-byte boundary of its stream, so every
array's data starts on a 64-byte file offset too, and every mapped array
is aligned: the traversal reads misaligned float64 columns about 40%
slower.  The padding is JSON whitespace and zero bytes between segments,
so any v2 reader reads the file.  Files written before the padding still
map, misaligned, and answer the same.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .._io import atomic_write_bytes
from ..api.base import Release

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactIntegrityError",
    "artifact_info",
    "read_artifact",
    "write_artifact",
]

ARTIFACT_FORMAT = "repro.release_artifact"
ARTIFACT_VERSION = 2

_MAGIC = b"REPROBIN"
_FOOTER_MAGIC = b"SHA2-256"
_FOOTER_LEN = len(_FOOTER_MAGIC) + 32  # magic + sha256 digest
_PREAMBLE = struct.Struct("<8sII")  # magic, version, header length
_ALIGN = 64  # bytes: the data block and every segment start on a multiple


class ArtifactError(ValueError):
    """A binary artifact failed structural validation (not an artifact,
    wrong version, unknown kind, missing segments)."""


class ArtifactIntegrityError(ArtifactError):
    """The artifact's sha256 footer does not match its bytes.

    Truncated download, torn write, or bit rot: the file must not be
    served.  Distinct from :class:`ArtifactError` so operators can tell
    "wrong file" from "damaged file"."""


# ----------------------------------------------------------------------
# Per-kind codecs: release -> (meta, named arrays) and back
# ----------------------------------------------------------------------


def _encode_spatial_tree(release: Release) -> tuple[dict, dict[str, np.ndarray]]:
    flat = release.flat()  # type: ignore[attr-defined]
    return {}, {
        "lows": flat.lows,
        "highs": flat.highs,
        "counts": flat.counts,
        "parents": flat.parents,
        "child_offsets": flat.child_offsets,
        "child_index": flat.child_index,
    }


def _check_derived(arrays: dict, flat: Any, names: tuple[str, ...], what: str) -> None:
    """Raise :class:`ArtifactError` (``what`` naming the array) unless each
    stored array in ``names`` is ``flat``'s derived one: dtype, shape and
    values."""
    for name in names:
        stored, derived = np.asarray(arrays[name]), getattr(flat, name)
        if (
            stored.dtype != derived.dtype
            or stored.shape != derived.shape
            or not np.array_equal(stored, derived)
        ):
            raise ArtifactError(what.format(name))


def _decode_spatial_tree(meta: dict, arrays: dict[str, np.ndarray], **prov) -> Release:
    """Build the tree from its stored ``lows``, ``highs``, ``counts`` and
    ``parents`` through the one constructor that checks them: the footer
    proves intact bytes, not a fit.  The stored child lists are never read
    but must be the derived ones, as every writer stores them."""
    from ..api.releases import SpatialTreeRelease
    from ..spatial.flat import FlatHistogram

    try:
        flat = FlatHistogram(
            arrays["lows"], arrays["highs"], arrays["counts"], arrays["parents"]
        )
    except ValueError as exc:
        raise ArtifactError(f"invalid spatial tree artifact: {exc}") from None
    _check_derived(
        arrays, flat, ("child_offsets", "child_index"),
        "spatial tree {} disagrees with its parents",
    )
    return SpatialTreeRelease(flat=flat, **prov)


def _encode_grid(release: Release) -> tuple[dict, dict[str, np.ndarray]]:
    grid = release.grid  # type: ignore[attr-defined]
    meta = {"shape": list(grid.shape)}
    if release.meta:  # type: ignore[attr-defined]
        meta["meta"] = release.meta  # type: ignore[attr-defined]
    return meta, {
        "low": np.asarray(grid.domain.low, dtype=float),
        "high": np.asarray(grid.domain.high, dtype=float),
        "counts": np.ascontiguousarray(grid.counts, dtype=float),
    }


def _decode_grid(meta: dict, arrays: dict[str, np.ndarray], **prov) -> Release:
    from ..api.releases import GridRelease, _grid_from_parts

    try:
        grid = _grid_from_parts(
            arrays["low"], arrays["high"], meta.get("shape"), arrays["counts"]
        )
    except ValueError as exc:
        raise ArtifactError(f"invalid grid artifact: {exc}") from None
    return GridRelease(grid, meta=meta.get("meta"), **prov)


def _encode_adaptive_grid(release: Release) -> tuple[dict, dict[str, np.ndarray]]:
    synopsis = release.synopsis  # type: ignore[attr-defined]
    arrays = {
        "level1_low": np.asarray(synopsis.level1.domain.low, dtype=float),
        "level1_high": np.asarray(synopsis.level1.domain.high, dtype=float),
        "level1_counts": np.ascontiguousarray(synopsis.level1.counts, dtype=float),
    }
    indices = []
    shapes = []
    for j, (index, grid) in enumerate(sorted(synopsis.subgrids.items())):
        indices.append(list(index))
        shapes.append(list(grid.shape))
        arrays[f"sub{j}_low"] = np.asarray(grid.domain.low, dtype=float)
        arrays[f"sub{j}_high"] = np.asarray(grid.domain.high, dtype=float)
        arrays[f"sub{j}_counts"] = np.ascontiguousarray(grid.counts, dtype=float)
    meta = {
        "level1_shape": list(synopsis.level1.shape),
        "subgrid_indices": indices,
        "subgrid_shapes": shapes,
    }
    return meta, arrays


def _decode_adaptive_grid(meta: dict, arrays: dict[str, np.ndarray], **prov) -> Release:
    from ..api.releases import (
        AdaptiveGridRelease,
        _adaptive_grid_from_parts,
        _grid_from_parts,
    )

    def grid(prefix: str, shape: Any):
        low, high = arrays[f"{prefix}_low"], arrays[f"{prefix}_high"]
        return _grid_from_parts(low, high, shape, arrays[f"{prefix}_counts"])

    shapes = meta.get("subgrid_shapes")
    try:
        if not isinstance(shapes, list):
            raise ValueError(f"AG subgrid shapes must be a list, got {shapes!r}")
        # Every segment must be one of the level-1 grid's three or a
        # listed subgrid's three (a missing one raises KeyError below).
        if len(arrays) != 3 * (len(shapes) + 1):
            raise ValueError(f"{len(arrays)} segments for {len(shapes) + 1} grids of 3")
        synopsis = _adaptive_grid_from_parts(
            grid("level1", meta.get("level1_shape")),
            meta.get("subgrid_indices"),
            [grid(f"sub{j}", shape) for j, shape in enumerate(shapes)],
        )
    except ValueError as exc:
        raise ArtifactError(f"invalid adaptive-grid artifact: {exc}") from None
    return AdaptiveGridRelease(synopsis, **prov)


def _encode_pst(release: Release) -> tuple[dict, dict[str, np.ndarray]]:
    flat = release.flat()  # type: ignore[attr-defined]
    meta = {"alphabet": list(flat.alphabet.symbols)}
    return meta, {
        "hists": flat.hists,
        "totals": flat.totals,
        "cum_probs": flat.cum_probs,
        "parents": flat.parents,
        "depths": flat.depths,
        "edge_symbols": flat.edge_symbols,
        "child_table": flat.child_table,
    }


def _decode_pst(meta: dict, arrays: dict[str, np.ndarray], **prov) -> Release:
    """Build the PST from its stored ``hists``, ``parents`` and
    ``edge_symbols``, through the one constructor that checks them.

    The footer proves intact bytes, not a fit: a child table that loops a
    node to itself or points past the arrays, or totals and probability
    rows that disagree with the histograms, would answer and sample
    wrongly.  So every stored derived array must equal what the
    constructor derives.
    """
    from ..api.releases import SequenceRelease
    from ..sequence.alphabet import Alphabet
    from ..sequence.flat import FlatPST

    try:
        flat = FlatPST(
            alphabet=Alphabet(tuple(meta["alphabet"])),
            hists=arrays["hists"],
            parents=arrays["parents"],
            edge_symbols=arrays["edge_symbols"],
        )
    except ValueError as exc:
        raise ArtifactError(f"invalid PST artifact: {exc}") from None
    _check_derived(
        arrays, flat, ("depths", "child_table", "totals", "cum_probs"),
        "PST {} disagrees with its hists, parents and edge_symbols",
    )
    return SequenceRelease(flat, **prov)


def _encode_ngram(release: Release) -> tuple[dict, dict[str, np.ndarray]]:
    model = release.model  # type: ignore[attr-defined]
    grams = sorted(model.counts.items())
    lengths = np.asarray([len(g) for g, _ in grams], dtype=np.int64)
    codes = np.asarray(
        [c for g, _ in grams for c in g], dtype=np.int64
    )
    counts = np.asarray([v for _, v in grams], dtype=float)
    meta = {
        "alphabet": list(model.alphabet.symbols),
        "n_max": int(model.n_max),
        "l_top": int(model.l_top),
    }
    return meta, {"gram_lengths": lengths, "gram_codes": codes, "gram_counts": counts}


def _decode_ngram(meta: dict, arrays: dict[str, np.ndarray], **prov) -> Release:
    from ..api.releases import NGramRelease
    from ..baselines.ngram import NGramModel
    from ..sequence.alphabet import Alphabet

    # The n-gram model's native engine is a tuple-keyed dict; there is no
    # zero-copy array form of a dict walk, so this codec rebuilds the dict
    # eagerly.  The format stays uniform across kinds regardless.
    try:
        model = NGramModel.from_arrays(
            Alphabet(tuple(meta["alphabet"])),
            int(meta["n_max"]),
            int(meta["l_top"]),
            arrays["gram_lengths"],
            arrays["gram_codes"],
            arrays["gram_counts"],
        )
    except ValueError as exc:
        raise ArtifactError(f"invalid n-gram artifact: {exc}") from None
    return NGramRelease(model, **prov)


_Encoder = Callable[[Release], tuple[dict, dict[str, np.ndarray]]]
_Decoder = Callable[..., Release]

_CODECS: dict[str, tuple[_Encoder, _Decoder]] = {
    "spatial-tree": (_encode_spatial_tree, _decode_spatial_tree),
    "spatial-grid": (_encode_grid, _decode_grid),
    "spatial-adaptive-grid": (_encode_adaptive_grid, _decode_adaptive_grid),
    "sequence-pst": (_encode_pst, _decode_pst),
    "sequence-ngram": (_encode_ngram, _decode_ngram),
}


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------


def write_artifact(release: Release, path: str | Path) -> int:
    """Serialize ``release`` to a v2 binary artifact at ``path`` (atomic).

    Returns the number of bytes written.  Raises :class:`ArtifactError`
    for release kinds without a binary codec.
    """
    codec = _CODECS.get(release.kind)
    if codec is None:
        raise ArtifactError(
            f"release kind {release.kind!r} has no binary artifact codec"
        )
    meta, arrays = codec[0](release)
    segments = []
    data = io.BytesIO()
    for name, array in arrays.items():
        data.write(bytes(-data.tell() % _ALIGN))
        offset = data.tell()
        np.lib.format.write_array(
            data, np.ascontiguousarray(array), version=(1, 0)
        )
        segments.append(
            {"name": name, "offset": offset, "length": data.tell() - offset}
        )
    header = json.dumps(
        {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "kind": release.kind,
            "method": release.method,
            "epsilon_spent": release.epsilon_spent,
            "meta": meta,
            "segments": segments,
        },
        sort_keys=True,
    ).encode("utf-8")
    header += b" " * (-(_PREAMBLE.size + len(header)) % _ALIGN)
    body = _PREAMBLE.pack(_MAGIC, ARTIFACT_VERSION, len(header))
    body += header + data.getvalue()
    digest = hashlib.sha256(body).digest()
    blob = body + _FOOTER_MAGIC + digest
    atomic_write_bytes(path, blob)
    return len(blob)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------


def _read_header(path: Path) -> tuple[dict, int, int]:
    """(header dict, data start offset, file size) with structural checks."""
    size = path.stat().st_size
    if size < _PREAMBLE.size + _FOOTER_LEN:
        raise ArtifactIntegrityError(
            f"artifact {str(path)!r} is truncated ({size} bytes)"
        )
    with path.open("rb") as handle:
        magic, version, header_len = _PREAMBLE.unpack(handle.read(_PREAMBLE.size))
        if magic != _MAGIC:
            raise ArtifactError(f"{str(path)!r} is not a binary release artifact")
        if version != ARTIFACT_VERSION:
            raise ArtifactError(f"unsupported artifact version {version}")
        data_start = _PREAMBLE.size + header_len
        if data_start + _FOOTER_LEN > size:
            raise ArtifactIntegrityError(f"artifact {str(path)!r} is truncated")
        try:
            header = json.loads(handle.read(header_len))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactIntegrityError(
                f"artifact {str(path)!r} has a corrupt header: {exc}"
            ) from None
    if not isinstance(header, dict):
        raise ArtifactError(f"artifact {str(path)!r} header is not a JSON object")
    if header.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"not a release artifact header: {header.get('format')!r}"
        )
    return header, data_start, size


def _verify_footer(path: Path, size: int) -> None:
    """Check the sha256 footer against the file bytes (streamed)."""
    digest = hashlib.sha256()
    remaining = size - _FOOTER_LEN
    with path.open("rb") as handle:
        while remaining > 0:
            chunk = handle.read(min(remaining, 4 * 1024 * 1024))
            if not chunk:
                raise ArtifactIntegrityError(f"artifact {str(path)!r} is truncated")
            remaining -= len(chunk)
            digest.update(chunk)
        footer = handle.read(_FOOTER_LEN)
    if len(footer) != _FOOTER_LEN or footer[: len(_FOOTER_MAGIC)] != _FOOTER_MAGIC:
        raise ArtifactIntegrityError(
            f"artifact {str(path)!r} is missing its integrity footer"
        )
    if footer[len(_FOOTER_MAGIC) :] != digest.digest():
        raise ArtifactIntegrityError(
            f"artifact {str(path)!r} failed its sha256 integrity check"
        )


def _segment_table(header: dict) -> list[tuple[str, int, int]]:
    """The header's segments as checked (name, offset, length) triples."""
    segments = header.get("segments", [])
    if not isinstance(segments, list):
        raise ArtifactError("artifact header segments must be a list")
    table = []
    for segment in segments:
        if not isinstance(segment, dict):
            raise ArtifactError("artifact header segments must be objects")
        name = segment.get("name")
        if not isinstance(name, str):
            raise ArtifactError("artifact segment name must be a string")
        for key in ("offset", "length"):
            value = segment.get(key)
            if type(value) is not int or value < 0:  # bool is not a count
                raise ArtifactError(
                    f"artifact segment {name!r} {key} must be a non-negative integer"
                )
        table.append((name, segment["offset"], segment["length"]))
    return table


def _map_segment(path: Path, abs_offset: int, length: int, size: int) -> np.ndarray:
    """A read-only memmap view of one ``.npy`` segment."""
    if abs_offset + length + _FOOTER_LEN > size:
        raise ArtifactIntegrityError(
            f"artifact {str(path)!r} declares a segment outside the file"
        )
    with path.open("rb") as handle:
        handle.seek(abs_offset)
        try:
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        except ValueError as exc:
            raise ArtifactError(
                f"artifact {str(path)!r} segment at byte {abs_offset} is not "
                f"an .npy array: {exc}"
            ) from None
        if version != (1, 0):
            raise ArtifactError(f"unsupported .npy segment version {version}")
        data_offset = handle.tell()
    if fortran:
        raise ArtifactError("artifact segments must be C-contiguous")
    if dtype.hasobject:
        raise ArtifactError("artifact segments must not contain objects")
    if min(shape, default=0) < 0:
        raise ArtifactError("artifact segment has a negative dimension")
    count = math.prod(shape)
    if data_offset + count * dtype.itemsize > abs_offset + length:
        raise ArtifactIntegrityError(
            f"artifact {str(path)!r} declares a segment shorter than its array"
        )
    return np.memmap(path, dtype=dtype, mode="r", shape=shape, offset=data_offset)


def read_artifact(path: str | Path, *, verify: bool = True) -> Release:
    """Load a v2 binary artifact into a flat-backed :class:`Release`.

    The arrays handed to the flat engines are read-only ``np.memmap``
    views of the file — no copy, no parse; the OS pages data in on first
    touch and shares it across processes mapping the same file.  With
    ``verify`` (the default) the sha256 footer is checked first, so a
    truncated or bit-flipped artifact raises
    :class:`ArtifactIntegrityError` instead of serving garbage.  A header
    whose segment table, ``epsilon_spent`` or ``meta`` is malformed raises
    :class:`ArtifactError` before anything is mapped.
    """
    path = Path(path)
    header, data_start, size = _read_header(path)
    if verify:
        _verify_footer(path, size)
    codec = _CODECS.get(header.get("kind"))
    if codec is None:
        raise ArtifactError(f"unknown release kind {header.get('kind')!r}")
    for key in ("method", "epsilon_spent"):
        if key not in header:
            raise ArtifactError(f"artifact header is missing the {key!r} key")
    epsilon = header["epsilon_spent"]
    try:
        finite = type(epsilon) in (int, float) and math.isfinite(epsilon)
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        raise ArtifactError("artifact epsilon_spent must be a finite number")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ArtifactError("artifact header meta must be an object")
    arrays = {
        name: _map_segment(path, data_start + offset, length, size)
        for name, offset, length in _segment_table(header)
    }
    try:
        return codec[1](
            meta,
            arrays,
            method=str(header["method"]),
            epsilon_spent=float(epsilon),
        )
    except KeyError as exc:
        raise ArtifactError(f"artifact is missing segment {exc}") from None


def artifact_info(path: str | Path) -> dict[str, Any]:
    """Header summary of a binary artifact (no integrity scan, no load)."""
    path = Path(path)
    header, _, size = _read_header(path)
    return {
        "format": header["format"],
        "version": header["version"],
        "kind": header.get("kind"),
        "method": header.get("method"),
        "epsilon_spent": header.get("epsilon_spent"),
        "bytes": size,
        "segments": [name for name, _, _ in _segment_table(header)],
    }
