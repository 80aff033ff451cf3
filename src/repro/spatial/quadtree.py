"""Private spatial decompositions: PrivTree and SimpleTree end-to-end.

``_privtree_flat`` is the full §3.3 + §3.4 pipeline behind
``from_spec("privtree")``:

1. spend ε·tree_fraction on the PrivTree structure (Algorithm 2), grown
   as array levels (:class:`~repro.spatial.level.BoxLevel`) scored by one
   int32 node label per point (:class:`~repro.spatial.level.PointLabels`);
2. spend the rest on Laplace-perturbed leaf counts (sensitivity 1: each point
   lies in exactly one leaf);
3. rebuild intermediate counts as sums of their leaves.

It returns the release as :class:`~repro.spatial.flat.FlatHistogram`
arrays, written in pre-order by :func:`_release_leaf_counts`.
``_privtree_histogram`` wraps the same arrays in the
:class:`HistogramTree` view.

The federated coordinator (:class:`~repro.federated.FederatedPrivTree`)
runs the same pipeline over aggregated shard counts: it grows the same
array levels and shares the parameter check and the leaf-count release
defined here.

``_simpletree_flat`` is the Algorithm 1 baseline behind
``from_spec("simpletree")``: it grows the same levels and point labels
through :func:`~repro.core.simpletree.grow_simpletree`, and the per-node
noisy counts it computed *are* the release (scale ``h/ε``).  Both
releases lay the grown levels out with :func:`_flat_histogram`, and so
does the binary-SVT demo (:mod:`repro.svt.decomposition`).
``privtree_decomposition`` grows the levels alone and returns them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.analysis import simpletree_scale
from ..core.params import PrivTreeParams
from ..core.privtree import DEFAULT_MAX_DEPTH, grow_frontier
from ..core.simpletree import grow_simpletree
from ..mechanisms.accountant import PrivacyAccountant
from ..mechanisms.geometric import geometric_noise_interleaved
from ..mechanisms.laplace import laplace_noise
from ..mechanisms.rng import RngLike, ensure_rng
from .dataset import SpatialDataset
from .flat import FlatHistogram
from .histogram_tree import HistogramTree
from .level import BoxLevel, PointLabels, Preorder, preorder

__all__ = ["privtree_decomposition"]


def privtree_decomposition(
    dataset: SpatialDataset,
    epsilon: float,
    dims_per_split: int | None = None,
    theta: float = 0.0,
    rng: RngLike = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
) -> BoxLevel:
    """Run PrivTree on spatial data, spending all of ``epsilon`` on structure.

    Returns the root :class:`BoxLevel`; its :meth:`~BoxLevel.levels` are
    the partition, boxes only (no counts released).  Useful when the
    caller wants the partition itself, e.g. for private k-means
    coarsening; most users want ``from_spec("privtree")`` instead.
    """
    root = BoxLevel.root(dataset.domain, dims_per_split)
    params = PrivTreeParams.calibrate(epsilon, fanout=root.fanout, theta=theta)
    labels = PointLabels(dataset.points)
    grow_frontier(
        root, params, ensure_rng(rng), labels.scores, labels.descend,
        max_depth=max_depth,
    )
    return root


def _privtree_histogram(*args, **kwargs) -> HistogramTree:
    """:func:`_privtree_flat` as the :class:`HistogramTree` over its arrays."""
    return _privtree_flat(*args, **kwargs).to_tree()


def _privtree_flat(
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
) -> FlatHistogram:
    """The full ε-DP PrivTree synopsis of §3.3–§3.4, as flat arrays.

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
    root = BoxLevel.root(dataset.domain, dims_per_split)
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
    labels = PointLabels(dataset.points)
    grow_frontier(
        root, params, gen, labels.scores, labels.descend, max_depth=max_depth
    )
    counts = np.concatenate(labels.counts)
    return _release_leaf_counts(
        root, counts.__getitem__, eps_counts, tuples_per_individual,
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
    root: BoxLevel,
    leaf_scores: Callable[[np.ndarray], Sequence[float]],
    eps_counts: float,
    tuples_per_individual: int,
    count_mechanism: str,
    gen: np.random.Generator,
) -> FlatHistogram:
    """The §3.4 release: noisy leaf counts, internal nodes sum their children.

    Writes the tree grown below ``root`` straight into
    :class:`FlatHistogram`'s pre-order arrays.  ``leaf_scores(bfs)``
    returns the exact counts of the leaves, given as breadth-first node
    numbers in DFS left-to-right order, and is called once.  Leaf-count
    sensitivity: an individual's x points land in at most x leaves.  All
    leaf perturbations are drawn in one batched RNG call in that DFS order
    (the order of the historical per-leaf loop, so counts are unchanged),
    and each internal count adds its children's released counts left to
    right from 0, the float sums of Python's ``sum``.
    """
    layout = preorder(root)
    m = layout.position.size
    leaf = np.ones(m, dtype=bool)
    for parent in layout.parents:
        leaf[parent] = False
    leaves = np.flatnonzero(leaf)  # ascending pre-order = DFS
    exact = np.asarray(leaf_scores(layout.bfs[leaves]))
    if count_mechanism == "laplace":
        count_scale = tuples_per_individual / eps_counts
        noisy = exact.astype(float) + laplace_noise(
            count_scale, size=leaves.size, rng=gen
        )
    else:
        noisy = exact.astype(np.int64) + geometric_noise_interleaved(
            eps_counts,
            leaves.size,
            sensitivity=float(tuples_per_individual),
            rng=gen,
        )
    counts = np.empty(m)
    counts[leaves] = noisy
    for parent, child in zip(reversed(layout.parents), reversed(layout.children)):
        total = np.zeros(parent.size)
        for column in child.T:
            total += counts[column]
        counts[parent] = total
    return _flat_histogram(root, layout, counts)


def _flat_histogram(
    root: BoxLevel, layout: Preorder, counts: np.ndarray
) -> FlatHistogram:
    """The tree grown below ``root`` as :class:`FlatHistogram` arrays.

    ``layout`` is ``preorder(root)`` and ``counts`` the released count of
    every node, in pre-order; the bounds and the CSR topology are placed
    by ``layout``.
    """
    levels = list(root.levels())
    m = layout.position.size
    lows = np.empty((m, root.lows.shape[1]))
    highs = np.empty_like(lows)
    lows[layout.position] = np.concatenate([level.lows for level in levels])
    highs[layout.position] = np.concatenate([level.highs for level in levels])
    parents = np.full(m, -1, dtype=np.intp)
    n_children = np.zeros(m, dtype=np.intp)
    for parent, child in zip(layout.parents, layout.children):
        parents[child] = parent[:, None]
        n_children[parent] = child.shape[1]
    child_offsets = np.concatenate(([0], np.cumsum(n_children)))
    child_index = np.empty(int(child_offsets[-1]), dtype=np.intp)
    for parent, child in zip(layout.parents, layout.children):
        child_index[child_offsets[parent][:, None] + np.arange(child.shape[1])] = child
    return FlatHistogram(
        lows=lows,
        highs=highs,
        counts=counts,
        parents=parents,
        child_offsets=child_offsets,
        child_index=child_index,
    )


def _simpletree_flat(
    dataset: SpatialDataset,
    epsilon: float,
    height: int,
    theta: float,
    dims_per_split: int | None = None,
    rng: RngLike = None,
    accountant: PrivacyAccountant | None = None,
) -> FlatHistogram:
    """The Algorithm 1 baseline synopsis with noise scale ``h/ε``, as flat arrays.

    Every node's released count is the noisy score Algorithm 1 compared
    against ``theta``.
    """
    root = BoxLevel.root(dataset.domain, dims_per_split)
    lam = simpletree_scale(epsilon, height)
    # Both checks above run before the spend: a rejected call must leave
    # an external accountant's ledger untouched.
    if accountant is not None:
        accountant.spend(epsilon, "simpletree/node counts")
    labels = PointLabels(dataset.points)
    noisy = grow_simpletree(
        root, lam, theta, height, ensure_rng(rng), labels.scores, labels.descend
    )
    layout = preorder(root)
    return _flat_histogram(root, layout, np.concatenate(noisy)[layout.bfs])
