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
from ..spatial.flat import FlatHistogram, _from_parents

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


def _kdtree_flat(
    dataset: SpatialDataset,
    epsilon: float,
    height: int = 7,
    split_fraction: float = 0.3,
    rng: RngLike = None,
) -> FlatHistogram:
    """Build the private k-d tree synopsis as flat arrays, in pre-order.

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
    lows: list[tuple[float, ...]] = []
    highs: list[tuple[float, ...]] = []
    counts: list[float] = []
    parents: list[int] = []

    def build(low, high, points: np.ndarray, depth: int, parent: int) -> float:
        """Append the subtree's rows, this node first; return its count."""
        row = len(counts)
        lows.append(low)
        highs.append(high)
        counts.append(0.0)
        parents.append(parent)
        if depth >= levels:
            counts[row] = points.shape[0] + laplace_noise(count_scale, rng=gen)
            return counts[row]
        axis = depth % d
        cut = _private_split_position(
            points[:, axis], low[axis], high[axis], eps_split_level, gen
        )
        mask = points[:, axis] < cut
        left = build(low, _replace(high, axis, cut), points[mask], depth + 1, row)
        right = build(_replace(low, axis, cut), high, points[~mask], depth + 1, row)
        counts[row] = 0 + left + right
        return counts[row]

    build(dataset.domain.low, dataset.domain.high, dataset.points, 0, -1)
    return _from_parents(lows, highs, counts, parents)


def _replace(bounds: tuple[float, ...], axis: int, value: float) -> tuple[float, ...]:
    """``bounds`` with entry ``axis`` set to ``value``."""
    return bounds[:axis] + (value,) + bounds[axis + 1 :]
