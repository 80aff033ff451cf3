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
                             {"name": ..., "offset": ..., "length": ...}]}
    segments  bytes     one np.lib.format (.npy v1) stream per array;
                        segment offsets are relative to the end of the
                        header block
    footer    40 bytes  b"SHA2-256" + sha256(everything before the footer)

The footer digest covers the entire file, so truncation or a flipped bit
anywhere — header or array data — fails the load with
:class:`ArtifactIntegrityError` instead of silently corrupting answers.
"""

from __future__ import annotations

import hashlib
import io
import json
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


def _check_tree_topology(arrays: dict[str, np.ndarray]) -> None:
    """Fail closed unless the arrays form a tree rooted at node 0.

    The footer is a plain SHA-256 that any writer can compute: it proves
    the bytes are intact, not that a fit produced them.  A child list that
    loops back (node 0 as its own child) would send the level-by-level
    traversal and ``FlatHistogram.height`` round it forever, so the
    topology is checked here, in O(m) array operations, before a query
    runs.  Every edge points to a higher index, so there is no cycle.
    """
    # Plain views of the memmaps: a memmap's Python-level hooks would run
    # on every array operation below.
    lows, highs = np.asarray(arrays["lows"]), np.asarray(arrays["highs"])
    if (
        lows.ndim != 2
        or lows.shape != highs.shape
        or 0 in lows.shape
        or lows.dtype.kind != "f"
        or highs.dtype.kind != "f"
    ):
        raise ArtifactError("spatial tree bounds must be matching (m, d) floats")
    m = lows.shape[0]
    shapes = {
        "counts": (m,),
        "parents": (m,),
        "child_offsets": (m + 1,),
        "child_index": (m - 1,),
    }
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ArtifactError(
                f"spatial tree {name} has shape {arrays[name].shape}, "
                f"expected {shape} for {m} nodes"
            )
    topology = {}
    for name in ("parents", "child_offsets", "child_index"):
        if arrays[name].dtype.kind not in "iu":
            raise ArtifactError(f"spatial tree {name} must be integers")
        # An unsigned value past the intp range wraps negative and fails
        # the range checks below.
        topology[name] = np.asarray(arrays[name]).astype(np.intp, copy=False)
    offsets = topology["child_offsets"]
    index = topology["child_index"]
    parents = topology["parents"]
    if offsets[0] != 0 or offsets[-1] != m - 1 or np.any(offsets[1:] < offsets[:-1]):
        raise ArtifactError(
            "spatial tree child_offsets must rise from 0 to the child count"
        )
    if m > 1 and (index.min() < 1 or index.max() >= m):
        raise ArtifactError("spatial tree child_index names a node out of range")
    if np.any(np.bincount(index, minlength=m)[1:] != 1):
        raise ArtifactError(
            "spatial tree child_index must name every non-root node once"
        )
    # The parent of child slot j is the last node whose offset is <= j:
    # np.repeat(np.arange(m), np.diff(offsets)), at a fifth of the cost.
    owners = np.cumsum(np.bincount(offsets[1:m], minlength=m)[: m - 1])
    if np.any(index <= owners):
        raise ArtifactError("spatial tree child precedes its parent")
    if parents[0] != -1 or np.any(parents[index] != owners):
        raise ArtifactError("spatial tree parents disagree with the child lists")
    if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
        raise ArtifactError("spatial tree bounds must be finite")
    if not np.all(lows < highs):
        raise ArtifactError("spatial tree boxes must have lows < highs")


def _decode_spatial_tree(meta: dict, arrays: dict[str, np.ndarray], **prov) -> Release:
    from ..api.releases import SpatialTreeRelease
    from ..spatial.flat import FlatHistogram

    _check_tree_topology(arrays)
    flat = FlatHistogram(
        lows=arrays["lows"],
        highs=arrays["highs"],
        counts=arrays["counts"],
        parents=arrays["parents"],
        child_offsets=arrays["child_offsets"],
        child_index=arrays["child_index"],
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
    from ..api.releases import GridRelease
    from ..baselines.grid import UniformGrid
    from ..domains.box import Box

    grid = UniformGrid(
        domain=Box(tuple(arrays["low"]), tuple(arrays["high"])),
        counts=arrays["counts"].reshape(tuple(meta["shape"])),
    )
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
    from ..api.releases import AdaptiveGridRelease
    from ..baselines.ag import AdaptiveGrid
    from ..baselines.grid import UniformGrid
    from ..domains.box import Box

    def grid(prefix: str, shape: list) -> UniformGrid:
        return UniformGrid(
            domain=Box(
                tuple(arrays[f"{prefix}_low"]), tuple(arrays[f"{prefix}_high"])
            ),
            counts=arrays[f"{prefix}_counts"].reshape(tuple(shape)),
        )

    subgrids = {
        tuple(int(i) for i in index): grid(f"sub{j}", shape)
        for j, (index, shape) in enumerate(
            zip(meta["subgrid_indices"], meta["subgrid_shapes"])
        )
    }
    synopsis = AdaptiveGrid(
        level1=grid("level1", meta["level1_shape"]), subgrids=subgrids
    )
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
    from ..api.releases import SequenceRelease
    from ..sequence.alphabet import Alphabet
    from ..sequence.flat import FlatPST

    flat = FlatPST(
        alphabet=Alphabet(tuple(meta["alphabet"])),
        hists=arrays["hists"],
        totals=arrays["totals"],
        cum_probs=arrays["cum_probs"],
        parents=arrays["parents"],
        depths=arrays["depths"],
        edge_symbols=arrays["edge_symbols"],
        child_table=arrays["child_table"],
    )
    return SequenceRelease(flat=flat, **prov)


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
    lengths = arrays["gram_lengths"]
    codes = arrays["gram_codes"]
    values = arrays["gram_counts"]
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    counts = {
        tuple(int(c) for c in codes[offsets[i] : offsets[i + 1]]): float(values[i])
        for i in range(lengths.shape[0])
    }
    model = NGramModel(
        alphabet=Alphabet(tuple(meta["alphabet"])),
        n_max=int(meta["n_max"]),
        l_top=int(meta["l_top"]),
        counts=counts,
    )
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


def _map_segment(path: Path, abs_offset: int, length: int, size: int) -> np.ndarray:
    """A read-only memmap view of one ``.npy`` segment."""
    if abs_offset < 0 or abs_offset + length + _FOOTER_LEN > size:
        raise ArtifactIntegrityError(
            f"artifact {str(path)!r} declares a segment outside the file"
        )
    with path.open("rb") as handle:
        handle.seek(abs_offset)
        version = np.lib.format.read_magic(handle)
        if version != (1, 0):
            raise ArtifactError(f"unsupported .npy segment version {version}")
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        data_offset = handle.tell()
    if fortran:
        raise ArtifactError("artifact segments must be C-contiguous")
    if dtype.hasobject:
        raise ArtifactError("artifact segments must not contain objects")
    count = int(np.prod(shape)) if shape else 1
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
    :class:`ArtifactIntegrityError` instead of serving garbage.
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
    arrays = {}
    for segment in header.get("segments", ()):
        arrays[segment["name"]] = _map_segment(
            path, data_start + int(segment["offset"]), int(segment["length"]), size
        )
    try:
        return codec[1](
            header.get("meta", {}),
            arrays,
            method=str(header["method"]),
            epsilon_spent=float(header["epsilon_spent"]),
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
        "segments": [s["name"] for s in header.get("segments", ())],
    }
