"""Private k-d tree decomposition (Xiao, Xiong, Yuan; SDM 2010).

The related-work baseline of Section 7: a fixed-height k-d tree whose split
positions are chosen privately with the exponential mechanism (utility =
closeness to the median) and whose leaf counts get Laplace noise.  Shown
inferior to UG/AG by Qardaji et al. — reproduced here for completeness and
to exercise the exponential mechanism on a second application.

Budget: ``split_fraction * eps`` spread over the ``height - 1`` split
levels (each point participates in one split per level, so levels compose
sequentially), remainder on leaf counts.
"""

from __future__ import annotations

import numpy as np

from ..core.analysis import check_height
from ..mechanisms.exponential import exponential_mechanism
from ..mechanisms.laplace import laplace_noise
from ..mechanisms.rng import RngLike, ensure_rng
from ..spatial.dataset import SpatialDataset
from ..spatial.histogram_tree import HistogramNode, HistogramTree

__all__: list[str] = []


def _private_split_position(
    coords: np.ndarray,
    lo: float,
    hi: float,
    epsilon: float,
    gen: np.random.Generator,
    n_candidates: int = 32,
) -> float:
    """Pick a near-median split with the exponential mechanism.

    Candidates are an even grid over ``(lo, hi)``; the utility of a
    candidate is minus its rank distance from the median (sensitivity 1:
    adding one point moves every rank by at most one).
    """
    candidates = np.linspace(lo, hi, n_candidates + 2)[1:-1]
    ranks = np.searchsorted(np.sort(coords), candidates)
    utilities = -np.abs(ranks - coords.size / 2.0)
    return float(
        exponential_mechanism(
            list(candidates), utilities, sensitivity=1.0, epsilon=epsilon, rng=gen
        )
    )


def _kdtree_histogram(
    dataset: SpatialDataset,
    epsilon: float,
    height: int = 7,
    split_fraction: float = 0.3,
    rng: RngLike = None,
) -> HistogramTree:
    """Build the private k-d tree synopsis.

    ``height`` levels with round-robin split dimensions; leaves receive
    ``Lap(1 / ((1 - split_fraction) * eps))`` noisy counts, and internal
    counts are rebuilt as sums of their leaves.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    check_height(height)
    if not 0 < split_fraction < 1:
        raise ValueError(f"split_fraction must be in (0, 1), got {split_fraction!r}")
    gen = ensure_rng(rng)
    d = dataset.ndim
    levels = height - 1
    eps_split_level = split_fraction * epsilon / levels if levels else 0.0
    count_scale = 1.0 / ((1.0 - split_fraction) * epsilon)

    def build(box, points: np.ndarray, depth: int) -> HistogramNode:
        if depth >= levels:
            noisy = points.shape[0] + laplace_noise(count_scale, rng=gen)
            return HistogramNode(box=box, count=noisy)
        axis = depth % d
        lo, hi = box.low[axis], box.high[axis]
        cut = _private_split_position(points[:, axis], lo, hi, eps_split_level, gen)
        left_box, right_box = _split_box(box, axis, cut)
        mask = points[:, axis] < cut
        children = [
            build(left_box, points[mask], depth + 1),
            build(right_box, points[~mask], depth + 1),
        ]
        total = sum(c.count for c in children)
        return HistogramNode(box=box, count=total, children=children)

    root = build(dataset.domain, dataset.points, 0)
    return HistogramTree(root=root)


def _split_box(box, axis: int, cut: float):
    from ..domains.box import Box

    left_high = list(box.high)
    left_high[axis] = cut
    right_low = list(box.low)
    right_low[axis] = cut
    return (
        Box(box.low, tuple(left_high)),
        Box(tuple(right_low), box.high),
    )
