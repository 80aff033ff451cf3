"""Serialization of released spatial synopses.

A private synopsis is the artifact a curator actually *publishes*, so it
must survive a round-trip to disk.  The JSON schema is deliberately plain —
boxes and counts, no library internals — so third-party consumers can parse
it without this package.

The document is written from a release's
:class:`~repro.spatial.flat.FlatHistogram` arrays (:func:`flat_to_dict`);
:func:`tree_to_dict` compiles a pointer tree to those arrays first, so the
schema is written in one place and a fitted release is published without
building a node object.

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

from .._io import atomic_write_text
from ..domains.box import Box
from .flat import FlatHistogram
from .histogram_tree import HistogramNode, HistogramTree

__all__ = ["flat_to_dict", "tree_to_dict", "tree_from_dict", "save_tree", "load_tree"]

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
    atomic_write_text(path, json.dumps(tree_to_dict(tree)))


def load_tree(path: str | Path) -> HistogramTree:
    """Read a synopsis back from a JSON file."""
    return tree_from_dict(json.loads(Path(path).read_text()))
