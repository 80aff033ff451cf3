"""PrivTree — Algorithm 2 of the paper, generic over the domain.

The engine walks the frontier level by level.  For each node ``v`` it

1. computes the biased score ``b(v) = max(theta - delta, score(v) - depth(v) * delta)``
   (Equation (8)),
2. perturbs it: ``bhat(v) = b(v) + Lap(lam)``,
3. splits ``v`` iff ``bhat(v) > theta``.

:func:`grow_frontier` is that level loop, the only one in the package.  It
reads a *level*: any object with a ``depth``, a ``size``, a vectorized
``splittable()`` mask and a ``split(index)`` that returns the next level.
Two kinds exist.  :class:`~repro.core.node.NodeLevel` is a list of
:class:`~repro.core.node.TreeNode` payloads; :func:`privtree` grows it for
the sequence PST and for ``privtree_decomposition``.
:class:`~repro.spatial.level.BoxLevel` holds a whole depth of boxes as
``(m, d)`` arrays; both spatial fits grow it.  Each level's exact scores
come from one call to a score function and a commit callback runs after
each level.  The noise does not depend on where the scores come from, so
one loop serves every source: payload scores, one int32 label per point
counted with ``bincount`` (``from_spec("privtree")``), or the counts that
secure aggregation recovers from the shards, committed as a splits round
plus a checkpoint write (:class:`~repro.federated.FederatedPrivTree`).

All of a level's Laplace perturbations are drawn in a single batched RNG
call.  numpy fills a sized ``Generator.laplace`` request from the same
underlying stream, in the same order, as repeated scalar calls, so the
decomposition is bit-identical to the historical one-draw-per-node engine:
the draw order remains BFS over splittable nodes only.

No height limit is needed: the decaying bias makes the expected tree size at
most twice the noise-free tree (Lemma 3.2).  The engine works on any
:class:`~repro.domains.base.NodePayload` — spatial boxes with point sets,
product domains, or PST contexts — as long as the payload's score is
monotone under splitting.

Released artifacts must not expose the scores used here; the spatial and
sequence wrappers add noisy counts in a separate, separately-budgeted
postprocessing pass (§3.4).
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..domains.base import NodePayload
from ..mechanisms.laplace import laplace_noise
from ..mechanisms.rng import RngLike, ensure_rng
from ..telemetry import span as _span
from .node import DecompositionTree, NodeLevel, TreeNode
from .params import PrivTreeParams

__all__ = [
    "privtree",
    "grow_frontier",
    "payload_scores",
    "MaxDepthWarning",
    "DEFAULT_MAX_DEPTH",
]

P = TypeVar("P", bound=NodePayload)

#: Implementation guard, not part of the paper's algorithm: Lemma 3.2 bounds
#: the *expected* tree size, but a hard stop protects against pathological
#: RNG streams and float-resolution degeneracy.  At fanout 4 a depth-64 tree
#: would already hold 4^64 nodes, so the guard is far outside normal operation.
DEFAULT_MAX_DEPTH = 64


class MaxDepthWarning(UserWarning):
    """Emitted if the max-depth guard truncated the decomposition."""


#: A level: one depth of a frontier, with a ``depth``, a ``size``, a
#: vectorized ``splittable()`` mask and a ``split(index)`` that returns the
#: next level (:class:`~repro.core.node.NodeLevel`,
#: :class:`~repro.spatial.level.BoxLevel`).
L = TypeVar("L")


def privtree(
    root_payload: P,
    params: PrivTreeParams,
    rng: RngLike = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
) -> DecompositionTree[P]:
    """Run PrivTree (Algorithm 2) from ``root_payload``.

    Parameters
    ----------
    root_payload:
        Domain + data for the whole space (``dom(v1) = Ω``).
    params:
        Calibrated noise scale / decay / threshold; build with
        :meth:`PrivTreeParams.calibrate`.
    rng:
        Seed or generator for the Laplace noise.
    max_depth:
        Safety guard (see :data:`DEFAULT_MAX_DEPTH`); ``None`` disables it.

    Returns
    -------
    DecompositionTree
        The decomposition; node scores are *not* stored on the returned tree
        (per Algorithm 2 line 11, all point counts are removed).
    """
    root = TreeNode(payload=root_payload, depth=0)
    grow_frontier(
        NodeLevel([root], 0), params, ensure_rng(rng), payload_scores,
        max_depth=max_depth,
    )
    return DecompositionTree(root=root)


def payload_scores(level: NodeLevel[P], eligible: np.ndarray) -> list[float]:
    """The exact scores of ``level``'s nodes at ``eligible``, from their payloads."""
    return [level.nodes[i].payload.score() for i in eligible]


def grow_frontier(
    level: L,
    params: PrivTreeParams,
    gen: np.random.Generator,
    scores: Callable[[L, np.ndarray], Sequence[float]],
    commit: Callable[[L, np.ndarray, L], None] | None = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
) -> None:
    """Grow the decomposition below ``level``, a frontier of one depth.

    ``scores(level, eligible)`` returns the exact scores of the level's
    nodes at the ascending indices ``eligible`` (its splittable nodes), in
    order, and is called once per level.  ``commit(level, split,
    next_level)`` runs after every level that had a splittable node, once
    ``level.split(split)`` has made the next level.  Neither may touch
    ``gen``.
    """
    guard_hit = False
    floor = params.floor()
    while level.size:
        depth = level.depth
        # Per-level span only (never per-node): frontier shape and split
        # counts are safe to trace, raw points and scores are not.
        with _span("privtree.level", depth=depth, frontier=level.size) as level_span:
            eligible = np.flatnonzero(level.splittable())
            if eligible.size and max_depth is not None and depth >= max_depth:
                guard_hit = True
                eligible = eligible[:0]
            if not eligible.size:
                level_span.set(eligible=0, split=0)
                break
            exact = np.asarray(scores(level, eligible), dtype=float)
            noise = laplace_noise(params.lam, size=eligible.size, rng=gen)
            biased = np.maximum(floor, exact - depth * params.delta)
            to_split = eligible[biased + noise > params.theta]
            next_level = level.split(to_split)
            if commit is not None:
                commit(level, to_split, next_level)
            level_span.set(eligible=int(eligible.size), split=int(to_split.size))
        level = next_level
    if guard_hit:
        warnings.warn(
            f"PrivTree hit the max_depth={max_depth} guard; the decomposition "
            "was truncated (this is outside the paper's analysis)",
            MaxDepthWarning,
            stacklevel=3,
        )
