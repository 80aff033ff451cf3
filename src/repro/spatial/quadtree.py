"""Private spatial decompositions: PrivTree and SimpleTree end-to-end.

``_privtree_histogram`` is the full §3.3 + §3.4 pipeline behind
``from_spec("privtree")``:

1. spend ε·tree_fraction on the PrivTree structure (Algorithm 2);
2. spend the rest on Laplace-perturbed leaf counts (sensitivity 1: each point
   lies in exactly one leaf);
3. rebuild intermediate counts as sums of their leaves.

The federated coordinator (:class:`~repro.federated.FederatedPrivTree`)
runs the same pipeline over aggregated shard counts: it shares the
parameter check and the leaf-count release defined here.

``_simpletree_histogram`` is the Algorithm 1 baseline behind
``from_spec("simpletree")``: the per-node noisy counts it computed *are*
the release (scale ``h/ε``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.analysis import simpletree_scale
from ..core.node import TreeNode
from ..core.params import PrivTreeParams
from ..core.privtree import DEFAULT_MAX_DEPTH, payload_scores, privtree
from ..core.simpletree import simpletree
from ..mechanisms.accountant import PrivacyAccountant
from ..mechanisms.geometric import geometric_noise_interleaved
from ..mechanisms.laplace import laplace_noise
from ..mechanisms.rng import RngLike, ensure_rng
from .dataset import SpatialDataset
from .histogram_tree import HistogramNode, HistogramTree
from .payload import SpatialNodeData

__all__ = ["privtree_decomposition"]


def privtree_decomposition(
    dataset: SpatialDataset,
    epsilon: float,
    dims_per_split: int | None = None,
    theta: float = 0.0,
    rng: RngLike = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
):
    """Run PrivTree on spatial data, spending all of ``epsilon`` on structure.

    Returns the internal decomposition tree (no counts released).  Useful
    when the caller wants the partition itself, e.g. for private k-means
    coarsening; most users want ``from_spec("privtree")`` instead.
    """
    root = SpatialNodeData.root(dataset, dims_per_split)
    params = PrivTreeParams.calibrate(epsilon, fanout=root.fanout, theta=theta)
    return privtree(root, params, rng=rng, max_depth=max_depth)


def _privtree_histogram(
    dataset: SpatialDataset,
    epsilon: float,
    dims_per_split: int | None = None,
    theta: float = 0.0,
    tree_fraction: float = 0.5,
    tuples_per_individual: int = 1,
    count_mechanism: str = "laplace",
    rng: RngLike = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    accountant: PrivacyAccountant | None = None,
) -> HistogramTree:
    """The full ε-DP PrivTree synopsis of §3.3–§3.4.

    Parameters
    ----------
    dataset:
        The sensitive point set.
    epsilon:
        Total privacy budget; split ``tree_fraction`` / ``1 - tree_fraction``
        between structure and leaf counts (½/½ in the paper).
    dims_per_split:
        Dimensions bisected per split (fanout β = 2^dims_per_split); defaults
        to all dimensions — the standard quadtree setting.
    theta:
        Split threshold (0 per §3.4).
    tuples_per_individual:
        The §3.5 multi-leaf extension for user-level privacy: if one
        individual can contribute up to ``x`` points (e.g. trajectory
        check-ins), both the split scores and the leaf counts scale their
        noise by ``x``, protecting the individual's whole record.
    count_mechanism:
        ``"laplace"`` (the paper's choice) or ``"geometric"`` — the latter
        releases *integer* leaf counts via the two-sided geometric
        mechanism at the same ε.
    accountant:
        An external :class:`PrivacyAccountant` to debit (the §3.4 split is
        recorded as two ledger entries summing to ``epsilon``); a private
        one with budget ``epsilon`` is created when omitted.
    """
    _check_fit_params(tree_fraction, tuples_per_individual, count_mechanism)
    root = SpatialNodeData.root(dataset, dims_per_split)
    eps_tree = tree_fraction * epsilon
    eps_counts = (1.0 - tree_fraction) * epsilon
    params = PrivTreeParams.calibrate(
        eps_tree,
        fanout=root.fanout,
        sensitivity=float(tuples_per_individual),
        theta=theta,
    )
    gen = ensure_rng(rng)
    if accountant is None:
        accountant = PrivacyAccountant(epsilon)
    # Every check above runs before the first spend: a rejected call must
    # leave an external accountant's ledger untouched.
    accountant.spend(eps_tree, "privtree/tree structure")
    accountant.spend(eps_counts, "privtree/leaf counts")
    tree = privtree(root, params, rng=gen, max_depth=max_depth)
    return _release_leaf_counts(
        tree.root, payload_scores, eps_counts, tuples_per_individual,
        count_mechanism, gen,
    )


def _check_fit_params(
    tree_fraction: float, tuples_per_individual: int, count_mechanism: str
) -> None:
    """Reject bad PrivTree histogram parameters, before any budget is spent."""
    if tuples_per_individual < 1:
        raise ValueError(
            f"tuples_per_individual must be >= 1, got {tuples_per_individual!r}"
        )
    if count_mechanism not in ("laplace", "geometric"):
        raise ValueError(
            f"count_mechanism must be 'laplace' or 'geometric', got {count_mechanism!r}"
        )
    if not 0 < tree_fraction < 1:
        raise ValueError(f"tree_fraction must be in (0, 1), got {tree_fraction!r}")


def _release_leaf_counts(
    root: TreeNode,
    scores: Callable[[list[TreeNode]], Sequence[float]],
    eps_counts: float,
    tuples_per_individual: int,
    count_mechanism: str,
    gen: np.random.Generator,
) -> HistogramTree:
    """The §3.4 release: noisy leaf counts, internal nodes sum their children.

    ``scores`` is the score source the level loop used, called once with
    every leaf.  Leaf-count sensitivity: an individual's x points land in
    at most x leaves.  All leaf perturbations are drawn in one batched RNG
    call, in DFS left-to-right leaf order (the order of the historical
    per-leaf loop, so counts are unchanged).
    """
    nodes = list(root.iter_nodes())
    leaves = [node for node in nodes if node.is_leaf]
    exact = np.asarray(scores(leaves))
    if count_mechanism == "laplace":
        count_scale = tuples_per_individual / eps_counts
        noisy = exact.astype(float) + laplace_noise(
            count_scale, size=len(leaves), rng=gen
        )
    else:
        noisy = exact.astype(np.int64) + geometric_noise_interleaved(
            eps_counts,
            len(leaves),
            sensitivity=float(tuples_per_individual),
            rng=gen,
        )
    # Reverse pre-order visits every subtree before its root, and leaves
    # in reverse DFS order; a node's released children are then the top
    # of the stack, first child uppermost.
    leaf_counts = reversed(noisy.astype(float).tolist())
    stack: list[HistogramNode] = []
    for node in reversed(nodes):
        if node.is_leaf:
            stack.append(HistogramNode(box=node.payload.box, count=next(leaf_counts)))
        else:
            children = [stack.pop() for _ in node.children]
            stack.append(
                HistogramNode(
                    box=node.payload.box,
                    count=sum(c.count for c in children),
                    children=children,
                )
            )
    return HistogramTree(root=stack.pop())


def _simpletree_histogram(
    dataset: SpatialDataset,
    epsilon: float,
    height: int,
    theta: float,
    dims_per_split: int | None = None,
    rng: RngLike = None,
    accountant: PrivacyAccountant | None = None,
) -> HistogramTree:
    """The Algorithm 1 baseline synopsis with noise scale ``h/ε``."""
    root = SpatialNodeData.root(dataset, dims_per_split)
    lam = simpletree_scale(epsilon, height)
    if accountant is not None:
        accountant.spend(epsilon, "simpletree/node counts")
    tree = simpletree(root, lam, theta=theta, height=height, rng=rng)
    released: dict[int, HistogramNode] = {}
    for node in reversed(tree.nodes()):
        released[id(node)] = HistogramNode(
            box=node.payload.box,
            count=float(node.noisy_score),
            children=[released[id(c)] for c in node.children],
        )
    return HistogramTree(root=released[id(tree.root)])
