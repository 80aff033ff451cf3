"""Synthetic spatial datasets mimicking the paper's Table 2 corpora.

No network access is available, so each of the paper's datasets is replaced
by a generator that preserves the property the experiments exercise — the
*skewness* of the point distribution (see "Reproduction notes" in the
README):

* :func:`roadlike` — mass concentrated on a random polyline network, like
  road junctions: extreme 2-d skew.
* :func:`gowallalike` — Zipf-weighted city clusters plus background, like
  check-ins: moderate 2-d skew.
* :func:`nyclike` — 4-d correlated pickup/dropoff pairs from a few tight
  hotspots, like NYC taxis: extreme 4-d skew.
* :func:`beijinglike` — broader clusters with weak pickup/dropoff coupling:
  moderate 4-d skew.

Every generator uses two random streams: a fixed *structure* seed (the road
network / city layout — the "population", identical across calls) and the
caller's ``rng`` for sampling points, so experiment repetitions vary the
sample but not the underlying world.  All points land in the unit cube.
"""

from __future__ import annotations

import numpy as np

from ..domains.box import Box
from ..mechanisms.rng import RngLike, ensure_rng
from ..spatial.dataset import SpatialDataset

__all__ = ["roadlike", "gowallalike", "nyclike", "beijinglike"]

#: Seed of the fixed "world" (road layout, city positions, hotspots).
_STRUCTURE_SEED = 160115  # arXiv submission date of the paper


def _clip_unit(points: np.ndarray) -> np.ndarray:
    return np.clip(points, 0.0, np.nextafter(1.0, 0.0))


def roadlike(
    n: int = 100_000,
    rng: RngLike = None,
    n_segments: int = 400,
    noise_fraction: float = 0.02,
    jitter: float = 1.5e-3,
) -> SpatialDataset:
    """2-d points along a random polyline network (road-junction analogue).

    A fixed random walk lays out ``n_segments`` connected road segments;
    points are placed uniformly along segments (weighted by length) with a
    small perpendicular jitter, plus a ``noise_fraction`` uniform background.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    world = np.random.default_rng(_STRUCTURE_SEED)
    gen = ensure_rng(rng)

    # A two-tier network, like real road maps: dense tangles of short
    # streets inside a few "urban" areas, plus long sparse "rural" roads.
    towns = world.uniform(0.1, 0.9, size=(10, 2))
    town_radius = world.uniform(0.03, 0.10, size=10)
    segments = []
    n_urban = int(n_segments * 0.7)
    n_walkers = 40
    per_walker = max(1, n_urban // n_walkers)
    for w in range(n_walkers):
        town = w % len(towns)
        pos = towns[town] + world.normal(0.0, town_radius[town] / 2, size=2)
        heading = world.uniform(0, 2 * np.pi)
        for _ in range(per_walker):
            heading += world.normal(0.0, 1.1)
            step = world.uniform(0.005, 0.02)
            nxt = pos + step * np.array([np.cos(heading), np.sin(heading)])
            nxt = np.clip(nxt, 0.02, 0.98)
            segments.append((pos.copy(), nxt.copy()))
            pos = nxt
    n_rural = n_segments - len(segments)
    for _ in range(max(n_rural, 1)):
        a = towns[world.integers(len(towns))]
        b = towns[world.integers(len(towns))]
        wiggle = world.normal(0.0, 0.04, size=(2, 2))
        segments.append((np.clip(a + wiggle[0], 0.02, 0.98), np.clip(b + wiggle[1], 0.02, 0.98)))
    seg_a = np.array([s[0] for s in segments])
    seg_b = np.array([s[1] for s in segments])
    lengths = np.linalg.norm(seg_b - seg_a, axis=1)
    # Junction density is highest on urban streets: weight segments by
    # length but give the short urban segments a density boost.
    density = np.where(lengths < 0.025, 6.0, 1.0)
    weights = lengths * density
    weights = weights / weights.sum()

    n_noise = int(round(n * noise_fraction))
    n_road = n - n_noise
    which = gen.choice(len(segments), size=n_road, p=weights)
    along = gen.uniform(0.0, 1.0, size=(n_road, 1))
    base = seg_a[which] + along * (seg_b[which] - seg_a[which])
    pts = base + gen.normal(0.0, jitter, size=base.shape)
    noise = gen.uniform(0.0, 1.0, size=(n_noise, 2))
    points = _clip_unit(np.vstack([pts, noise]))
    return SpatialDataset(points=points, domain=Box.unit(2), name="roadlike")


def gowallalike(
    n: int = 40_000,
    rng: RngLike = None,
    n_cities: int = 60,
    background_fraction: float = 0.08,
) -> SpatialDataset:
    """2-d Zipf-weighted Gaussian city clusters (check-in analogue)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    world = np.random.default_rng(_STRUCTURE_SEED + 1)
    gen = ensure_rng(rng)

    centers = world.uniform(0.05, 0.95, size=(n_cities, 2))
    scales = world.uniform(0.004, 0.05, size=n_cities)
    ranks = np.arange(1, n_cities + 1, dtype=float)
    weights = (1.0 / ranks**0.9)
    weights /= weights.sum()

    n_bg = int(round(n * background_fraction))
    n_city = n - n_bg
    which = gen.choice(n_cities, size=n_city, p=weights)
    pts = centers[which] + gen.normal(0.0, 1.0, size=(n_city, 2)) * scales[
        which, None
    ]
    background = gen.uniform(0.0, 1.0, size=(n_bg, 2))
    points = _clip_unit(np.vstack([pts, background]))
    return SpatialDataset(points=points, domain=Box.unit(2), name="gowallalike")


def _trip_dataset(
    n: int,
    gen: np.random.Generator,
    centers: np.ndarray,
    scales: np.ndarray,
    weights: np.ndarray,
    same_cluster_prob: float,
    name: str,
) -> SpatialDataset:
    """4-d (pickup, dropoff) pairs from a shared 2-d hotspot mixture."""
    k = len(centers)
    pick = gen.choice(k, size=n, p=weights)
    stay = gen.uniform(size=n) < same_cluster_prob
    drop = np.where(stay, pick, gen.choice(k, size=n, p=weights))
    pickup = centers[pick] + gen.normal(0.0, 1.0, size=(n, 2)) * scales[pick, None]
    dropoff = centers[drop] + gen.normal(0.0, 1.0, size=(n, 2)) * scales[drop, None]
    points = _clip_unit(np.hstack([pickup, dropoff]))
    return SpatialDataset(points=points, domain=Box.unit(4), name=name)


def nyclike(n: int = 30_000, rng: RngLike = None) -> SpatialDataset:
    """4-d taxi-trip analogue with extreme skew (a few tight hotspots)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    world = np.random.default_rng(_STRUCTURE_SEED + 2)
    gen = ensure_rng(rng)
    k = 12
    centers = world.uniform(0.1, 0.9, size=(k, 2))
    scales = np.concatenate([world.uniform(0.004, 0.012, 4), world.uniform(0.01, 0.04, k - 4)])
    weights = np.concatenate([np.full(4, 0.20), np.full(k - 4, 0.20 / (k - 4))])
    return _trip_dataset(n, gen, centers, scales, weights, 0.55, "nyclike")


def beijinglike(n: int = 15_000, rng: RngLike = None) -> SpatialDataset:
    """4-d taxi-trip analogue with milder skew (broad, even hotspots)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    world = np.random.default_rng(_STRUCTURE_SEED + 3)
    gen = ensure_rng(rng)
    k = 16
    centers = world.uniform(0.08, 0.92, size=(k, 2))
    scales = world.uniform(0.04, 0.12, size=k)
    weights = world.dirichlet(np.full(k, 4.0))
    return _trip_dataset(n, gen, centers, scales, weights, 0.3, "beijinglike")
