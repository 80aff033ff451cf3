"""Differentially private k-means via PrivTree coarsening.

Section 1 motivates the decomposition problem with private data mining:
"first coarsen the input data and inject noise into it, then use the
modified data to derive mining results."  This module realizes that recipe:

* :func:`privtree_kmeans` — build a PrivTree histogram (the only step that
  touches the data; all of ε is spent there), then run weighted Lloyd
  iterations on the leaf centroids with the noisy counts as weights.
  Everything after the release is postprocessing, so the whole procedure is
  ε-DP by construction.
* :func:`dplloyd_kmeans` — the classical interactive baseline (Su et al.):
  each Lloyd iteration publishes noisy cluster sums and sizes, splitting ε
  across iterations.

``kmeans_cost`` evaluates both against the exact data for experiments.
"""

from __future__ import annotations

import numpy as np

from ..mechanisms.rng import RngLike, ensure_rng
from ..spatial.dataset import SpatialDataset
from ..spatial.histogram_tree import HistogramTree
from ..spatial.quadtree import _privtree_histogram

__all__ = ["privtree_kmeans", "dplloyd_kmeans", "kmeans_cost"]


def _weighted_lloyd(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    iterations: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """Standard Lloyd iterations on weighted points (no privacy needed)."""
    positive = weights > 0
    pts = points[positive]
    wts = weights[positive]
    if pts.shape[0] == 0:
        raise ValueError("no positive-weight points to cluster")
    # Weighted k-means++ seeding: the first seed follows the weights, each
    # further seed follows weight x squared-distance-to-nearest-seed.
    seeds = [int(gen.choice(pts.shape[0], p=wts / wts.sum()))]
    for _ in range(min(k, pts.shape[0]) - 1):
        d2 = ((pts[:, None, :] - pts[seeds][None, :, :]) ** 2).sum(axis=2).min(axis=1)
        prob = wts * d2
        total = prob.sum()
        if total <= 0:
            seeds.append(int(gen.choice(pts.shape[0], p=wts / wts.sum())))
        else:
            seeds.append(int(gen.choice(pts.shape[0], p=prob / total)))
    centers = pts[seeds].copy()
    if centers.shape[0] < k:  # duplicate seeds if fewer cells than k
        extra = gen.choice(pts.shape[0], size=k - centers.shape[0])
        centers = np.vstack([centers, pts[extra]])
    for _ in range(iterations):
        distances = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = distances.argmin(axis=1)
        for j in range(k):
            mask = assign == j
            mass = wts[mask].sum()
            if mass > 0:
                centers[j] = (pts[mask] * wts[mask, None]).sum(axis=0) / mass
    return centers


def privtree_kmeans(
    dataset: SpatialDataset,
    k: int,
    epsilon: float,
    iterations: int = 10,
    rng: RngLike = None,
    synopsis: HistogramTree | None = None,
) -> np.ndarray:
    """ε-DP k-means centers via PrivTree coarsening.

    Spends all of ``epsilon`` on one PrivTree histogram release,
    then clusters the leaf centers weighted by their noisy counts — pure
    postprocessing.  A pre-built ``synopsis`` can be supplied to reuse an
    existing release (no additional privacy cost).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    gen = ensure_rng(rng)
    if synopsis is None:
        synopsis = _privtree_histogram(dataset, epsilon, rng=gen)
    leaves = [n for n in synopsis.root.iter_nodes() if n.is_leaf]
    centers = np.array([leaf.box.center for leaf in leaves])
    weights = np.array([max(leaf.count, 0.0) for leaf in leaves])
    return _weighted_lloyd(centers, weights, k, iterations, gen)


def dplloyd_kmeans(
    dataset: SpatialDataset,
    k: int,
    epsilon: float,
    iterations: int = 5,
    rng: RngLike = None,
) -> np.ndarray:
    """The interactive DPLloyd baseline.

    Each iteration publishes, per cluster, a noisy point count (sensitivity
    1) and a noisy coordinate sum (sensitivity = the domain diameter per
    axis); the budget is split evenly across iterations and halved between
    the two statistics.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations!r}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    gen = ensure_rng(rng)
    pts = dataset.points
    low = np.asarray(dataset.domain.low)
    extent = np.asarray(dataset.domain.extents)
    eps_iter = epsilon / iterations
    count_scale = 1.0 / (eps_iter / 2.0)
    # Coordinate sums have per-axis sensitivity = extent of that axis.
    sum_scales = extent * dataset.ndim / (eps_iter / 2.0)

    centers = gen.uniform(low, low + extent, size=(k, dataset.ndim))
    for _ in range(iterations):
        distances = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = distances.argmin(axis=1)
        for j in range(k):
            mask = assign == j
            noisy_count = mask.sum() + gen.laplace(0.0, count_scale)
            noisy_sum = pts[mask].sum(axis=0) + gen.laplace(
                0.0, sum_scales, size=dataset.ndim
            )
            if noisy_count > 1.0:
                centers[j] = np.clip(noisy_sum / noisy_count, low, low + extent)
    return centers


def kmeans_cost(dataset: SpatialDataset, centers: np.ndarray) -> float:
    """Mean squared distance of each point to its nearest center (NICV)."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != dataset.ndim:
        raise ValueError(
            f"centers must be (k, {dataset.ndim}), got {centers.shape}"
        )
    distances = ((dataset.points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(distances.min(axis=1).mean())
