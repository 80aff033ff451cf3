"""Property-based tests for the counts :class:`PointLabels` gives each level.

The levels are grown by hand: each depth splits a random subset of its
splittable nodes (no noise), through :meth:`BoxLevel.split` and
:meth:`PointLabels.descend`, as the fits drive them.  At every depth,
each node's count must equal a brute-force count of the points in its
half-open box.  The datasets are drawn so that the cell histogram's
block depth ``K`` falls inside the grown depths (the counts switch from
the histogram to the per-point labels), is 0 (few points), or is cut
short by a dimension whose bisection collapses; points sit on exact
midpoints and on the domain's low corner as well as inside the cells.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import Box
from repro.spatial import SpatialDataset
from repro.spatial.level import BoxLevel, PointLabels

#: Bisections per dimension that the exact-midpoint coordinates come from.
MIDPOINT_DEPTH = 8


def _boundaries(low: float, high: float) -> np.ndarray:
    """Every boundary of ``MIDPOINT_DEPTH`` bisections of ``[low, high)``,
    each midpoint ``(lo + hi) / 2.0`` of the interval above it.  Those
    at the upper end (where a collapsing midpoint can land too) are left
    out: they lie outside the half-open domain."""
    edges = np.array([low, high])
    for _ in range(MIDPOINT_DEPTH):
        finer = np.empty(2 * edges.size - 1)
        finer[0::2] = edges
        finer[1::2] = (edges[:-1] + edges[1:]) / 2.0
        edges = finer
    return edges[edges < high]


@st.composite
def datasets(draw):
    """A domain of 1-4 dimensions, some possibly a few ulps wide, and
    points inside the cells, on exact midpoints and on the low corner."""
    d = draw(st.integers(1, 4))
    low, high = [], []
    for _ in range(d):
        lo = draw(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
        if draw(st.integers(0, 4)) == 0:
            # A few ulps wide: the bisection collapses within a few levels.
            hi = lo
            for _ in range(draw(st.integers(1, 6))):
                hi = np.nextafter(hi, np.inf)
        else:
            hi = lo + draw(st.floats(1e-3, 1e3))
        low.append(float(lo))
        high.append(float(hi))
    domain = Box(tuple(low), tuple(high))
    n = draw(st.integers(0, 400))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = np.empty((n, d))
    kind = gen.integers(0, 3, size=(n, d))
    for dim in range(d):
        inside = gen.uniform(low[dim], high[dim], size=n)
        inside = np.minimum(inside, np.nextafter(high[dim], -np.inf))
        on_boundary = gen.choice(_boundaries(low[dim], high[dim]), size=n)
        column = np.where(kind[:, dim] == 0, inside, on_boundary)
        points[:, dim] = np.where(kind[:, dim] == 2, low[dim], column)
    points[gen.random(n) < 0.1] = low
    return SpatialDataset(points, domain)


def brute_force_counts(level: BoxLevel, points: np.ndarray) -> list[int]:
    """Points in each of ``level``'s half-open boxes, by comparison."""
    inside = (points[None] >= level.lows[:, None]) & (points[None] < level.highs[:, None])
    return inside.all(axis=2).sum(axis=1).tolist()


class TestLevelCounts:
    @given(data=datasets(), choice=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_level_counts_its_boxes(self, data, choice):
        dims_per_split = choice.draw(st.integers(1, data.ndim))
        seed = choice.draw(st.integers(0, 2**32 - 1))
        gen = np.random.default_rng(seed)
        level = BoxLevel.root(data.domain, dims_per_split)
        labels = PointLabels(data.points)
        for _ in range(12):
            assert labels.counts[level.depth].tolist() == brute_force_counts(
                level, data.points
            )
            splittable = np.flatnonzero(level.splittable())
            if not splittable.size:
                break
            # At most 6 splits a level keeps the deeper levels small.
            picked = np.sort(gen.permutation(splittable)[: gen.integers(1, 7)])
            next_level = level.split(picked)
            labels.descend(level, picked, next_level)
            level = next_level
        assert labels.counts[level.depth].tolist() == brute_force_counts(
            level, data.points
        )
