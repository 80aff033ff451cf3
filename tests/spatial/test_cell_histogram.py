"""Tests for :class:`PointLabels`' cell histogram and its block depth.

The counts themselves are held to brute-force box counts by
``tests/property/test_level_properties.py`` and to the historical
per-level labels by ``test_level.py``, ``test_frozen_trees.py`` and the
federated bit-identity suites; these tests pin where the histogram
stops (the block depth ``K``) and that the switch to labels below it
keeps the counts.
"""

import numpy as np
import pytest

from repro.domains import Box
from repro.spatial import SpatialDataset
from repro.spatial.level import BoxLevel, PointLabels, _cell_grid


def _two_ulps_wide() -> Box:
    low = 0.5
    return Box((low, low), (np.nextafter(np.nextafter(low, 1.0), 1.0),) * 2)


class TestBlockDepth:
    @pytest.mark.parametrize(
        "n,d,dims_per_split,depth",
        [
            # fanout**K <= min(2**20, 2 * n)
            (1_000_000, 2, None, 10),
            (100_000, 2, None, 8),
            (1_000_000, 1, None, 20),
            (1_000_000, 3, None, 6),
            (1_000_000, 3, 1, 20),
            (1_000_000, 4, None, 5),
            (1, 1, None, 1),
            (1, 2, None, 0),
            (0, 2, None, 0),
        ],
    )
    def test_cells_fit_the_cap(self, n, d, dims_per_split, depth):
        root = BoxLevel.root(Box.unit(d), dims_per_split)
        assert _cell_grid(root, n)[0] == depth

    @pytest.mark.parametrize(
        "domain,dims_per_split,depth",
        [
            # The second dimension is one subnormal wide: no bisection.
            (Box((0.0, 0.0), (1.0, 5e-324)), None, 0),
            (Box((0.0, 0.0), (1.0, 5e-324)), 1, 1),
            # Each dimension bisects once before its midpoint collapses.
            (_two_ulps_wide(), None, 1),
            (_two_ulps_wide(), 1, 2),
        ],
    )
    def test_collapsing_bisection_stops_the_block(self, domain, dims_per_split, depth):
        assert _cell_grid(BoxLevel.root(domain, dims_per_split), 1_000_000)[0] == depth

    def test_axes_hold_each_dimensions_bisections(self):
        # Round robin over 3 dimensions, 1 a level, 8 levels: dimensions 0
        # and 1 are bisected 3 times and dimension 2 twice.
        depth, axes = _cell_grid(BoxLevel.root(Box.unit(3), 1), 128)
        assert depth == 8
        assert [axis.spread.size for axis in axes] == [8, 8, 4]
        # Level t owns code bit 7 - t, so dimension 0 (levels 0, 3, 6)
        # owns bits 7, 4 and 1, its first bisection the top one.
        assert axes[0].spread.tolist() == [
            (i >> 2 & 1) << 7 | (i >> 1 & 1) << 4 | (i & 1) << 1 for i in range(8)
        ]
        bits = [int(np.bitwise_or.reduce(axis.spread)) for axis in axes]
        assert bits == [0b10010010, 0b01001001, 0b00100100]


class TestSwitchToLabels:
    def test_counts_cross_the_block_depth(self):
        # 40 points: K = 3 at fanout 4.  Grow 6 levels, splitting every
        # node, and hold each level to a scan of its boxes.
        gen = np.random.default_rng(0)
        points = gen.uniform(size=(40, 2)) ** 2
        data = SpatialDataset(points, Box.unit(2))
        level = BoxLevel.root(data.domain)
        labels = PointLabels(data.points)
        assert _cell_grid(level, data.n)[0] == 3
        for _ in range(6):
            inside = (points[None] >= level.lows[:, None]) & (points[None] < level.highs[:, None])
            assert labels.counts[level.depth].tolist() == inside.all(axis=2).sum(axis=1).tolist()
            index = np.flatnonzero(labels.counts[level.depth] > 0)
            next_level = level.split(index)
            labels.descend(level, index, next_level)
            level = next_level

    def test_stopped_points_are_dropped_at_the_switch(self):
        # Only the node of (0.9, 0.9) splits, so the other 99 points stop
        # above K; the switch drops them.
        points = np.vstack([np.full((1, 2), 0.9), np.full((99, 2), 0.1)])
        data = SpatialDataset(points, Box.unit(2))
        level = BoxLevel.root(data.domain)
        labels = PointLabels(data.points)
        depth = _cell_grid(level, data.n)[0]
        for _ in range(depth):
            holds = np.flatnonzero(((level.lows <= 0.9) & (0.9 < level.highs)).all(axis=1))
            next_level = level.split(holds)
            labels.descend(level, holds, next_level)
            level = next_level
        assert labels.counts[depth].sum() == 1
        assert labels._labels.size == 1
