"""Serialization of released spatial synopses.

A private synopsis is the artifact a curator actually *publishes*, so it
must survive a round-trip to disk.  The JSON schema is deliberately plain —
boxes and counts, no library internals — so third-party consumers can parse
it without this package.

The schema has two writers, both working from a release's
:class:`~repro.spatial.flat.FlatHistogram` arrays, so a fitted release is
published without building a node object:

* :func:`flat_to_dict` builds the nested dicts.  It is the reference:
  the dict API (:func:`tree_to_dict` compiles a pointer tree to the
  arrays first) and ``Release.to_json`` return it.
* :func:`flat_to_json_text` writes the JSON text directly, in whole-column
  operations, and is what every file writer uses.  Its output is byte for
  byte ``json.dumps(flat_to_dict(flat))``: each float's text comes from
  :func:`json.dumps` itself, and the tests hold the two writers equal.

Loading validates the document: artifacts crossing a process boundary (the
release store, the HTTP query service) are untrusted input, and a malformed
box or count must fail here with a clear :class:`ValueError`, not deep
inside flat-engine query math.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .._io import atomic_write_text
from ..domains.box import Box
from .flat import FlatHistogram
from .histogram_tree import HistogramNode, HistogramTree

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


def _load_box(data: dict[str, Any]) -> Box:
    try:
        low = tuple(float(x) for x in data["low"])
        high = tuple(float(x) for x in data["high"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"node must carry numeric 'low'/'high' coordinate lists, "
            f"got low={data.get('low')!r} high={data.get('high')!r}"
        ) from None
    if len(low) != len(high) or not low:
        raise ValueError(
            f"box extents disagree: low has {len(low)} dims, high has {len(high)}"
        )
    for lo, hi in zip(low, high):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"non-finite box coordinate in [{lo!r}, {hi!r})")
        if not lo < hi:
            raise ValueError(f"invalid box extent [{lo!r}, {hi!r}): low must be < high")
    return Box(low, high)


def _node_from_dict(data: dict[str, Any], parent_box: Box | None = None) -> HistogramNode:
    box = _load_box(data)
    if parent_box is not None:
        if box.ndim != parent_box.ndim:
            raise ValueError(
                f"child box has {box.ndim} dims but its parent has {parent_box.ndim}"
            )
        if not parent_box.contains_box(box):
            raise ValueError(
                f"child box [{box.low}, {box.high}) escapes its parent "
                f"[{parent_box.low}, {parent_box.high})"
            )
    try:
        count = float(data["count"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"node must carry a numeric 'count', got {data.get('count')!r}"
        ) from None
    if not math.isfinite(count):
        raise ValueError(f"non-finite node count {count!r}")
    children = [_node_from_dict(c, box) for c in data.get("children", [])]
    return HistogramNode(box=box, count=count, children=children)


def tree_to_dict(tree: HistogramTree) -> dict[str, Any]:
    """Plain-JSON representation of a released histogram tree."""
    return flat_to_dict(tree.flat())


def flat_to_dict(flat: FlatHistogram) -> dict[str, Any]:
    """The :func:`tree_to_dict` document, written from the flat arrays.

    The arrays are converted to Python lists once and the nested node
    dicts are built children first, in reverse pre-order; no
    :class:`HistogramNode` is made.
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


def _preorder(flat: FlatHistogram) -> tuple[np.ndarray, np.ndarray]:
    """(node at each pre-order position, its depth).

    Walks the CSR child lists one level at a time, like
    :attr:`FlatHistogram.height`, so any layout in which parents come
    before their children nests as :func:`flat_to_dict` nests it.
    """
    levels = [np.zeros(1, dtype=np.intp)]
    fanouts = []
    while True:
        n_children, children = flat._children(levels[-1])
        fanouts.append(n_children)
        if not children.size:
            break
        levels.append(children)
    # Per level, the running total of its subtree sizes (from 0), deepest
    # level first.  A level's children are grouped by parent, in the
    # parents' order.
    totals = [np.arange(levels[-1].size + 1)]
    for n_children in reversed(fanouts[:-1]):
        stops = np.cumsum(n_children)
        sizes = 1 + totals[0][stops] - totals[0][stops - n_children]
        totals.insert(0, np.concatenate(([0], np.cumsum(sizes))))
    # A child sits after its parent and the subtrees of its elder siblings.
    order = np.empty(int(totals[0][-1]), dtype=np.intp)
    depth = np.empty_like(order)
    positions = np.zeros(1, dtype=np.intp)
    for k, (nodes, n_children) in enumerate(zip(levels, fanouts)):
        order[positions] = nodes
        depth[positions] = k
        if k + 1 < len(levels):
            below = totals[k + 1]
            starts = np.cumsum(n_children) - n_children
            positions = np.repeat(positions + 1 - below[starts], n_children) + below[:-1]
    return order, depth


def flat_to_json_text(flat: FlatHistogram) -> str:
    """``json.dumps(flat_to_dict(flat))``, written from the arrays in bulk.

    Each node is its bound and count texts between constant separators,
    in pre-order: an internal node opens its ``"children"`` list, and a
    leaf closes itself plus one list per ancestor whose last subtree ends
    with it.  The texts and separators fill one ``(m, 4d + 3)`` object
    array, joined once.
    """
    order, depth = _preorder(flat)
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

    Raises :class:`ValueError` on malformed documents: inverted or
    non-finite boxes, children escaping their parent box, non-finite
    counts.
    """
    if data.get("format") != _FORMAT:
        raise ValueError(f"not a histogram-tree document: {data.get('format')!r}")
    if data.get("version") != _VERSION:
        raise ValueError(f"unsupported version {data.get('version')!r}")
    if "root" not in data:
        raise ValueError("histogram-tree document has no 'root' node")
    return HistogramTree(root=_node_from_dict(data["root"]))


def save_tree(tree: HistogramTree, path: str | Path) -> None:
    """Write a synopsis to a JSON file (atomically: temp file + rename)."""
    atomic_write_text(path, flat_to_json_text(tree.flat()))


def load_tree(path: str | Path) -> HistogramTree:
    """Read a synopsis back from a JSON file."""
    return tree_from_dict(json.loads(Path(path).read_text()))
