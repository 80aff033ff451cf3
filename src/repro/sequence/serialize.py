"""Serialization of released prediction suffix trees.

Mirrors ``repro.spatial.serialize``: the published artifact (contexts,
noisy histograms, the alphabet) as plain JSON, so a private Markov model
can be shipped to consumers who only need to *use* it.  The document
nests one object per node; it is written from, and decoded straight
into, the pre-order arrays of :class:`~repro.sequence.flat.FlatPST`,
children in ascending symbol-code order whatever the document's key
order.

Loading validates the document — artifacts arriving through the release
store or the HTTP query service are untrusted, so a node or child map of
the wrong JSON type, a child key outside ``I ∪ {$}``, inconsistent
contexts, wrong-width histograms and non-finite values fail here with a
clear :class:`ValueError` instead of surfacing later inside the engine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .._io import atomic_write_text
from .alphabet import Alphabet
from .flat import FlatPST

__all__ = ["pst_to_dict", "pst_from_dict", "save_pst", "load_pst"]

_FORMAT = "repro.prediction_suffix_tree"
_VERSION = 1


def pst_to_dict(flat: FlatPST) -> dict[str, Any]:
    """Plain-JSON representation of a released PST."""
    parents = flat.parents.tolist()
    edges = flat.edge_symbols.tolist()
    hists = flat.hists.tolist()
    table = flat.child_table.tolist()
    m = len(parents)
    contexts: list[list[int]] = [[]] * m
    for i in range(1, m):
        contexts[i] = [edges[i]] + contexts[parents[i]]
    # Every child's row follows its parent's, so a reverse sweep builds
    # each node after all of its children.
    nodes: list[dict[str, Any]] = [{}] * m
    for i in range(m - 1, -1, -1):
        node: dict[str, Any] = {"context": contexts[i], "hist": hists[i]}
        children = {str(code): nodes[j] for code, j in enumerate(table[i]) if j >= 0}
        if children:
            node["children"] = children
        nodes[i] = node
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "alphabet": list(flat.alphabet.symbols),
        "root": nodes[0],
    }


def _node_fields(
    data: Any,
    alphabet: Alphabet,
    parent_context: tuple[int, ...] | None,
    child_code: int | None,
) -> tuple[tuple[int, ...], list[float]]:
    """One node's validated ``(context, hist)``."""
    if not isinstance(data, dict):
        raise ValueError(f"PST node must be a JSON object, got {type(data).__name__}")
    try:
        context = tuple(int(c) for c in data["context"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ValueError(
            f"PST node must carry an integer 'context' list, "
            f"got {data.get('context')!r}"
        ) from None
    if parent_context is None and context:
        raise ValueError(f"the PST root's context must be empty, got {context!r}")
    if parent_context is not None and context != (child_code,) + parent_context:
        raise ValueError(
            f"child context {context!r} under key {child_code!r} does not "
            f"extend its parent context {parent_context!r}"
        )
    try:
        hist = [float(v) for v in data["hist"]]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ValueError(
            f"PST node {context!r} must carry a numeric 'hist' list, "
            f"got {data.get('hist')!r}"
        ) from None
    if len(hist) != alphabet.hist_size:
        raise ValueError(
            f"PST node {context!r} histogram has {len(hist)} entries; the "
            f"alphabet requires {alphabet.hist_size}"
        )
    if not np.all(np.isfinite(hist)):
        raise ValueError(f"non-finite histogram value in PST node {context!r}")
    return context, hist


def _child_codes(
    data: dict[str, Any], alphabet: Alphabet, context: tuple[int, ...]
) -> list[tuple[int, Any]]:
    """A node's ``(code, child)`` pairs in descending code order."""
    children = data.get("children", {})
    if not isinstance(children, dict):
        raise ValueError(
            f"PST node {context!r} 'children' must be an object keyed by "
            f"symbol code, got {type(children).__name__}"
        )
    keyed: dict[int, Any] = {}
    for raw_code, child in children.items():
        try:
            code = int(raw_code)
        except (TypeError, ValueError):
            raise ValueError(f"non-integer child key {raw_code!r}") from None
        if not (0 <= code < alphabet.size or code == alphabet.start_code):
            raise ValueError(
                f"child key {raw_code!r} of PST node {context!r} is not a "
                f"symbol of I or the start marker $ (codes 0-"
                f"{alphabet.size - 1} and {alphabet.start_code})"
            )
        if code in keyed:
            raise ValueError(f"PST node {context!r} has two children keyed {code}")
        keyed[code] = child
    return sorted(keyed.items(), reverse=True)


def pst_from_dict(data: dict[str, Any]) -> FlatPST:
    """Inverse of :func:`pst_to_dict` (validates header and structure).

    Raises :class:`ValueError` on malformed documents: a node that is not
    a JSON object, ``children`` that is not an object, a child key that is
    not a code of ``I ∪ {$}`` (or repeats one), histograms whose width
    disagrees with the alphabet, non-finite values, a root context that is
    not empty, and child contexts that do not extend their parent's
    context by the child's key symbol.
    """
    if data.get("format") != _FORMAT:
        raise ValueError(f"not a PST document: {data.get('format')!r}")
    if data.get("version") != _VERSION:
        raise ValueError(f"unsupported version {data.get('version')!r}")
    try:
        symbols = tuple(str(s) for s in data["alphabet"])
    except (KeyError, TypeError):
        raise ValueError(
            f"PST document must carry an 'alphabet' symbol list, "
            f"got {data.get('alphabet')!r}"
        ) from None
    alphabet = Alphabet(symbols)
    if "root" not in data:
        raise ValueError("PST document has no 'root' node")
    hists: list[list[float]] = []
    parents: list[int] = []
    edges: list[int] = []
    # One iterative pre-order walk: children are pushed in descending
    # code order, so they pop, and are laid out, in ascending order.
    stack: list[tuple[Any, int, int, tuple[int, ...] | None]] = [
        (data["root"], -1, -1, None)
    ]
    while stack:
        node, parent, code, parent_context = stack.pop()
        context, hist = _node_fields(
            node, alphabet, parent_context, None if parent < 0 else code
        )
        index = len(hists)
        hists.append(hist)
        parents.append(parent)
        edges.append(code)
        for child_code, child in _child_codes(node, alphabet, context):
            stack.append((child, index, child_code, context))
    return FlatPST(
        alphabet=alphabet,
        hists=np.asarray(hists, dtype=float),
        parents=np.asarray(parents, dtype=np.intp),
        edge_symbols=np.asarray(edges, dtype=np.int64),
    )


def save_pst(flat: FlatPST, path: str | Path) -> None:
    """Write a PST to a JSON file (atomically: temp file + rename)."""
    atomic_write_text(path, json.dumps(pst_to_dict(flat)))


def load_pst(path: str | Path) -> FlatPST:
    """Read a PST back from a JSON file."""
    return pst_from_dict(json.loads(Path(path).read_text()))
