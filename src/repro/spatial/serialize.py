"""Serialization of released spatial synopses.

A private synopsis is the artifact a curator actually *publishes*, so it
must survive a round-trip to disk.  The JSON schema is deliberately plain —
boxes and counts, no library internals — so third-party consumers can parse
it without this package.

The schema has two writers, both working from a release's
:class:`~repro.spatial.flat.FlatHistogram` arrays:

* :func:`flat_to_dict` builds the nested dicts.  It is the reference:
  the dict API (:func:`tree_to_dict`) and ``Release.to_json`` return it.
* :func:`flat_to_json_text` writes the JSON text directly, in whole-column
  operations, and is what every file writer uses.  Its output is byte for
  byte ``json.dumps(flat_to_dict(flat))``: each float's text comes from
  :func:`json.dumps` itself, and the tests hold the two writers equal.

:func:`tree_from_dict` decodes a document straight into pre-order arrays,
so a JSON round trip of a fitted release gives back the fit's arrays.  It
validates the document: artifacts crossing a process boundary (the release
store, the HTTP query service) are untrusted input, and a malformed node,
box or count must fail here with a clear :class:`ValueError`, not deep
inside flat-engine query math.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .._io import atomic_write_text
from .flat import FlatHistogram, _from_parents
from .histogram_tree import HistogramTree

__all__ = [
    "flat_to_dict",
    "flat_to_json_text",
    "tree_to_dict",
    "tree_from_dict",
    "save_tree",
    "load_tree",
]

_FORMAT = "repro.histogram_tree"
_VERSION = 1


def tree_to_dict(tree: HistogramTree) -> dict[str, Any]:
    """Plain-JSON representation of a released histogram tree."""
    return flat_to_dict(tree.flat())


def flat_to_dict(flat: FlatHistogram) -> dict[str, Any]:
    """The :func:`tree_to_dict` document, written from the flat arrays.

    The arrays are converted to Python lists once and the nested node
    dicts are built children first, in reverse pre-order.
    """
    lows = flat.lows.tolist()
    highs = flat.highs.tolist()
    counts = flat.counts.tolist()
    offsets = flat.child_offsets.tolist()
    index = flat.child_index.tolist()
    nodes: list[dict[str, Any]] = [{}] * flat.size
    for i in range(flat.size - 1, -1, -1):
        node: dict[str, Any] = {"low": lows[i], "high": highs[i], "count": counts[i]}
        start, stop = offsets[i], offsets[i + 1]
        if stop > start:
            node["children"] = [nodes[j] for j in index[start:stop]]
        nodes[i] = node
    return {"format": _FORMAT, "version": _VERSION, "root": nodes[0]}


def _json_texts(values: np.ndarray) -> np.ndarray:
    """The :func:`json.dumps` text of each value, as an object array."""
    return np.array(json.dumps(values.tolist())[1:-1].split(", "), dtype=object)


def _bound_texts(column: np.ndarray) -> np.ndarray:
    """:func:`_json_texts` of a bound column, each distinct value encoded once.

    Children reuse their parent's bounds and midpoints, so a column holds
    few distinct values.  They are told apart by bit pattern, which keeps
    ``0.0`` apart from ``-0.0``.
    """
    column = np.ascontiguousarray(column)
    if column.dtype.itemsize != 8:  # no 64-bit view: encode every value
        return _json_texts(column)
    distinct, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    return _json_texts(distinct.view(column.dtype))[inverse]


def flat_to_json_text(flat: FlatHistogram) -> str:
    """``json.dumps(flat_to_dict(flat))``, written from the arrays in bulk.

    Each node is its bound and count texts between constant separators,
    in pre-order: an internal node opens its ``"children"`` list, and a
    leaf closes itself plus one list per ancestor whose last subtree ends
    with it.  The texts and separators fill one ``(m, 4d + 3)`` object
    array, joined once.
    """
    order, depth = flat.preorder()
    # The next node is an internal node's first child, one level deeper
    # (-1 below); after a leaf it is k >= 0 levels up, closing k lists.
    closes = depth - np.append(depth[1:], 0)
    ends = np.array(
        [', "children": ['] + ["}" + "]}" * k + ", " for k in range(closes.max() + 1)],
        dtype=object,
    )[closes + 1]
    ends[-1] = ends[-1][:-2]  # the last node is a leaf closing every list
    columns: list[Any] = []
    for opening, bounds in (('{"low": [', flat.lows), ('], "high": [', flat.highs)):
        bounds = np.asarray(bounds)
        for k in range(flat.ndim):
            columns += [", " if k else opening, _bound_texts(bounds[order, k])]
    columns += ['], "count": ', _json_texts(np.asarray(flat.counts)[order]), ends]
    table = np.empty((order.size, len(columns)), dtype=object)
    for j, column in enumerate(columns):
        table[:, j] = column
    header = json.dumps({"format": _FORMAT, "version": _VERSION})
    return f'{header[:-1]}, "root": {"".join(table.ravel().tolist())}}}'


def tree_from_dict(data: dict[str, Any]) -> HistogramTree:
    """Inverse of :func:`tree_to_dict` (validates header and geometry).

    Walks the nodes once, in pre-order, into rows, then checks whole
    arrays.  Raises :class:`ValueError` on malformed documents: a node that
    is not an object, children that are not a list, missing or
    non-numeric bounds and counts, inverted or non-finite boxes, children
    escaping their parent box, non-finite counts.
    """
    header = data if isinstance(data, dict) else {}
    if header.get("format") != _FORMAT:
        raise ValueError(f"not a histogram-tree document: {header.get('format')!r}")
    if data.get("version") != _VERSION:
        raise ValueError(f"unsupported version {data.get('version')!r}")
    if "root" not in data:
        raise ValueError("histogram-tree document has no 'root' node")
    lows: list = []
    highs: list = []
    counts: list[float] = []
    parents: list[int] = []
    stack, stack_parents = [data["root"]], [-1]
    while stack:
        node, parent = stack.pop(), stack_parents.pop()
        if not isinstance(node, dict):
            raise ValueError(f"a tree node must be an object, got {node!r}")
        low, high = node.get("low"), node.get("high")
        if not (isinstance(low, (list, tuple)) and isinstance(high, (list, tuple))):
            raise ValueError(
                f"node must carry numeric 'low'/'high' coordinate lists, "
                f"got low={low!r} high={high!r}"
            )
        if len(low) != len(high) or not low:
            raise ValueError(
                f"box extents disagree: low has {len(low)} dims, high has {len(high)}"
            )
        if parent >= 0 and len(low) != len(lows[0]):
            raise ValueError(
                f"child box has {len(low)} dims but its parent has {len(lows[0])}"
            )
        try:
            count = float(node["count"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValueError(
                f"node must carry a numeric 'count', got {node.get('count')!r}"
            ) from None
        children = node.get("children", [])
        if not isinstance(children, (list, tuple)):
            raise ValueError(f"a node's 'children' must be a list, got {children!r}")
        stack_parents.extend([len(counts)] * len(children))
        stack.extend(reversed(children))
        lows.append(low)
        highs.append(high)
        counts.append(count)
        parents.append(parent)
    low_array, high_array = _bound_matrices(lows, highs)
    finite = np.isfinite(low_array) & np.isfinite(high_array)
    if not finite.all():
        lo, hi = _first_cell(~finite, low_array, high_array)
        raise ValueError(f"non-finite box coordinate in [{lo!r}, {hi!r})")
    inverted = ~(low_array < high_array)
    if inverted.any():
        lo, hi = _first_cell(inverted, low_array, high_array)
        raise ValueError(f"invalid box extent [{lo!r}, {hi!r}): low must be < high")
    parent_rows = np.array(parents[1:], dtype=np.intp)
    escapes = (low_array[1:] < low_array[parent_rows]) | (
        high_array[1:] > high_array[parent_rows]
    )
    if escapes.any():
        child = int(np.argmax(escapes.any(axis=1))) + 1
        parent = parents[child]
        low, high = tuple(low_array[child].tolist()), tuple(high_array[child].tolist())
        parent_low = tuple(low_array[parent].tolist())
        parent_high = tuple(high_array[parent].tolist())
        raise ValueError(
            f"child box [{low}, {high}) escapes its parent [{parent_low}, {parent_high})"
        )
    count_array = np.array(counts)
    finite_counts = np.isfinite(count_array)
    if not finite_counts.all():
        count = counts[int(np.argmin(finite_counts))]
        raise ValueError(f"non-finite node count {count!r}")
    return _from_parents(low_array, high_array, count_array, parents).to_tree()


def _bound_matrices(lows: list, highs: list) -> tuple[np.ndarray, np.ndarray]:
    """The bound rows, ``d`` entries each, as ``(m, d)`` float matrices.

    Converted in one call; if an entry is not a number, the first node
    holding one is named.
    """
    try:
        bounds = np.array([lows, highs], dtype=float)
        if bounds.ndim == 3:
            return bounds[0], bounds[1]
    except (TypeError, ValueError, OverflowError):
        pass
    for low, high in zip(lows, highs):
        try:
            [float(x) for x in (*low, *high)]
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"node must carry numeric 'low'/'high' coordinate lists, "
                f"got low={low!r} high={high!r}"
            ) from None
    raise ValueError("node bounds must be lists of numbers")


def _first_cell(mask: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    """(low, high) of the first flagged cell, row-major, as Python floats."""
    cell = np.unravel_index(np.argmax(mask), mask.shape)
    return lows[cell].item(), highs[cell].item()


def save_tree(tree: HistogramTree, path: str | Path) -> None:
    """Write a synopsis to a JSON file (atomically: temp file + rename)."""
    atomic_write_text(path, flat_to_json_text(tree.flat()))


def load_tree(path: str | Path) -> HistogramTree:
    """Read a synopsis back from a JSON file."""
    return tree_from_dict(json.loads(Path(path).read_text()))
