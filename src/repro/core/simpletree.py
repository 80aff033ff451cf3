"""SimpleTree — Algorithm 1 of the paper (the h-limited baseline).

The classical private hierarchical decomposition: every node's exact score
gets i.i.d. ``Lap(lam)`` noise and a node splits when its noisy score exceeds
``theta`` *and* the height limit ``h`` has not been reached.  Differential
privacy requires ``lam >= h / epsilon`` (Section 3.1), which is exactly the
dilemma PrivTree removes.

Unlike PrivTree, the noisy scores of Algorithm 1 *are* part of the release:
they are stored on each node as ``noisy_score``.  Because it noises every
node, not only the splittable ones, and splits on a different rule, it
keeps its own level loop instead of sharing PrivTree's
:func:`~repro.core.privtree.grow_frontier`; only the child expansion
(:func:`~repro.core.node.expand_level`) is common.
"""

from __future__ import annotations

from typing import TypeVar

from ..domains.base import NodePayload
from ..mechanisms.laplace import laplace_noise
from ..mechanisms.rng import RngLike, ensure_rng
from ..telemetry import span as _span
from .analysis import simpletree_scale
from .node import DecompositionTree, TreeNode, expand_level

__all__ = ["simpletree", "simpletree_for_epsilon"]

P = TypeVar("P", bound=NodePayload)


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
    if height < 1:
        raise ValueError(f"height must be at least 1, got {height!r}")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    gen = ensure_rng(rng)
    root = TreeNode(payload=root_payload, depth=0)
    level: list[TreeNode[P]] = [root]
    while level:
        # Per-level span only; attrs stay at frontier shape + split count.
        with _span(
            "simpletree.level", depth=level[0].depth, frontier=len(level)
        ) as level_span:
            # One batched draw per level; numpy's sized laplace consumes the
            # same stream as per-node scalar draws, so results are
            # bit-identical.
            noise = laplace_noise(lam, size=len(level), rng=gen)
            to_split: list[TreeNode[P]] = []
            for node, perturbation in zip(level, noise):
                noisy = node.payload.score() + float(perturbation)
                node.noisy_score = noisy
                if (
                    noisy > theta
                    and node.depth < height - 1
                    and node.payload.can_split()
                ):
                    to_split.append(node)
            level = expand_level(to_split)
            level_span.set(split=len(to_split))
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
