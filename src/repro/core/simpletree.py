"""SimpleTree — Algorithm 1 of the paper (the h-limited baseline).

The classical private hierarchical decomposition: every node's exact score
gets i.i.d. ``Lap(lam)`` noise and a node splits when its noisy score exceeds
``theta`` *and* the height limit ``h`` has not been reached.  Differential
privacy requires ``lam >= h / epsilon`` (Section 3.1), which is exactly the
dilemma PrivTree removes.

:func:`grow_simpletree` is Algorithm 1's level loop.  It reads the same
levels as PrivTree's :func:`~repro.core.privtree.grow_frontier` (a
``depth``, a ``size``, ``splittable()`` and ``split(index)``), but it
noises every node, not only the splittable ones, and splits on its own
rule, so the two algorithms keep separate loops over one level protocol.
:func:`simpletree` grows a :class:`~repro.core.node.NodeLevel` of payload
nodes; the spatial fit and the Section 5 binary-SVT demo grow
:class:`~repro.spatial.level.BoxLevel` arrays.  Unlike PrivTree, the noisy
scores of Algorithm 1 *are* part of the release: the loop returns them,
and :func:`simpletree` stores them on each node as ``noisy_score``.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from ..domains.base import NodePayload
from ..mechanisms.laplace import laplace_noise
from ..mechanisms.rng import RngLike, ensure_rng
from ..telemetry import span as _span
from .analysis import check_height, simpletree_scale
from .node import DecompositionTree, NodeLevel, TreeNode
from .privtree import payload_scores

__all__ = ["grow_simpletree", "simpletree", "simpletree_for_epsilon"]

P = TypeVar("P", bound=NodePayload)

#: A level, as in :func:`~repro.core.privtree.grow_frontier`.
L = TypeVar("L")


def grow_simpletree(
    level: L,
    lam: float,
    theta: float,
    height: int,
    gen: np.random.Generator,
    scores: Callable[[L, np.ndarray], Sequence[float]],
    commit: Callable[[L, np.ndarray, L], None] | None = None,
) -> list[np.ndarray]:
    """Grow the Algorithm 1 tree below ``level``; return each level's noisy scores.

    ``scores(level, nodes)`` returns the exact scores of all the level's
    nodes (``nodes`` is ``arange(level.size)``) and is called once per
    level.  Each level's perturbations are one sized draw over its nodes,
    in level order, which consumes ``gen`` exactly like one scalar draw per
    node in breadth-first order.  A node splits when its noisy score
    exceeds ``theta``, its depth is below ``height - 1`` and it is
    splittable.  ``commit(level, split, next_level)`` runs after every
    level, once ``level.split(split)`` has made the next one.
    """
    check_height(height)
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    noisy_levels: list[np.ndarray] = []
    while level.size:
        depth = level.depth
        # Per-level span only; attrs stay at frontier shape + split count.
        with _span("simpletree.level", depth=depth, frontier=level.size) as level_span:
            nodes = np.arange(level.size)
            noisy = np.asarray(scores(level, nodes), dtype=float) + laplace_noise(
                lam, size=level.size, rng=gen
            )
            noisy_levels.append(noisy)
            if depth < height - 1:
                to_split = np.flatnonzero((noisy > theta) & level.splittable())
            else:
                to_split = nodes[:0]
            next_level = level.split(to_split)
            if commit is not None:
                commit(level, to_split, next_level)
            level_span.set(split=int(to_split.size))
        level = next_level
    return noisy_levels


def simpletree(
    root_payload: P,
    lam: float,
    theta: float,
    height: int,
    rng: RngLike = None,
) -> DecompositionTree[P]:
    """Run SimpleTree (Algorithm 1).

    Parameters
    ----------
    root_payload:
        Domain + data for the whole space.
    lam:
        Laplace scale; must be at least ``height / epsilon`` for ε-DP.
    theta:
        Split threshold.
    height:
        The pre-defined limit ``h``: nodes at ``depth >= height - 1`` are
        never split, so the tree has at most ``height`` levels.
    """
    root = TreeNode(payload=root_payload, depth=0)
    levels: list[NodeLevel[P]] = []
    noisy = grow_simpletree(
        NodeLevel([root], 0), lam, theta, height, ensure_rng(rng), payload_scores,
        lambda level, split, next_level: levels.append(level),
    )
    for level, scores in zip(levels, noisy):
        for node, score in zip(level.nodes, scores.tolist()):
            node.noisy_score = score
    return DecompositionTree(root=root)


def simpletree_for_epsilon(
    root_payload: P,
    epsilon: float,
    theta: float,
    height: int,
    rng: RngLike = None,
) -> DecompositionTree[P]:
    """SimpleTree with the noise scale set to the ε-DP minimum ``h/ε``."""
    return simpletree(
        root_payload,
        lam=simpletree_scale(epsilon, height),
        theta=theta,
        height=height,
        rng=rng,
    )
