"""PrivTree — Algorithm 2 of the paper, generic over the domain.

The engine walks the frontier level by level.  For each node ``v`` it

1. computes the biased score ``b(v) = max(theta - delta, score(v) - depth(v) * delta)``
   (Equation (8)),
2. perturbs it: ``bhat(v) = b(v) + Lap(lam)``,
3. splits ``v`` iff ``bhat(v) > theta``.

:func:`grow_frontier` is that level loop, the only one in the package.  It
starts from a given frontier, takes each level's exact scores from one call
to a score function, and runs a commit callback after each level.  The
noise does not depend on where the scores come from, so one loop serves two
score sources: :func:`privtree` passes the payloads' own scores, and the
federated coordinator (:class:`~repro.federated.FederatedPrivTree`) passes
the counts that secure aggregation recovers from the shards, committing
each level as a splits round plus a checkpoint write.

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
from .node import DecompositionTree, TreeNode, expand_level
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
    grow_frontier([root], params, ensure_rng(rng), payload_scores, max_depth=max_depth)
    return DecompositionTree(root=root)


def payload_scores(nodes: list[TreeNode[P]]) -> list[float]:
    """The exact scores of ``nodes``, read from their payloads."""
    return [node.payload.score() for node in nodes]


def grow_frontier(
    level: list[TreeNode[P]],
    params: PrivTreeParams,
    gen: np.random.Generator,
    scores: Callable[[list[TreeNode[P]]], Sequence[float]],
    commit: Callable[[list[TreeNode[P]], list[TreeNode[P]]], None] | None = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
) -> None:
    """Grow the decomposition below ``level``, a frontier of one depth.

    ``scores(eligible)`` returns the exact scores of a level's splittable
    nodes, in order, and is called once per level.  ``commit(split,
    next_level)`` runs after every level that had a splittable node, once
    its children exist.  Neither may touch ``gen``.
    """
    guard_hit = False
    floor = params.floor()
    while level:
        # Per-level span only (never per-node): frontier shape and split
        # counts are safe to trace, raw points and scores are not.
        with _span(
            "privtree.level", depth=level[0].depth, frontier=len(level)
        ) as level_span:
            eligible: list[TreeNode[P]] = []
            for node in level:
                if not node.payload.can_split():
                    continue
                if max_depth is not None and node.depth >= max_depth:
                    guard_hit = True
                    continue
                eligible.append(node)
            if not eligible:
                level_span.set(eligible=0, split=0)
                break
            exact = scores(eligible)
            noise = laplace_noise(params.lam, size=len(eligible), rng=gen)
            to_split = [
                node
                for node, score, perturbation in zip(eligible, exact, noise)
                if max(floor, float(score) - node.depth * params.delta) + perturbation
                > params.theta
            ]
            level = expand_level(to_split)
            if commit is not None:
                commit(to_split, level)
            level_span.set(eligible=len(eligible), split=len(to_split))
    if guard_hit:
        warnings.warn(
            f"PrivTree hit the max_depth={max_depth} guard; the decomposition "
            "was truncated (this is outside the paper's analysis)",
            MaxDepthWarning,
            stacklevel=3,
        )
