"""Tests for the array levels every spatial tree grows.

:class:`BoxLevel` holds one depth's boxes and :class:`PointLabels` each
point's node in it.  The partition checks below hold every level's
counts to per-child :meth:`Box.contains_points` scans over the parent's
points (the historical node-at-a-time split), and every level's boxes to
:meth:`Box.bisect`.
"""

import numpy as np
import pytest

from repro.domains import Box
from repro.spatial import SpatialDataset
from repro.spatial.level import BoxLevel, PointLabels


def grow(dataset: SpatialDataset, dims_per_split=None):
    """The root level of ``dataset`` and its point labels."""
    return BoxLevel.root(dataset.domain, dims_per_split), PointLabels(dataset.points)


def split(level: BoxLevel, labels: PointLabels, index) -> BoxLevel:
    """Split ``level`` at ``index`` and move the labels down."""
    index = np.asarray(index, dtype=np.intp)
    next_level = level.split(index)
    labels.descend(level, index, next_level)
    return next_level


def level_boxes(level: BoxLevel) -> list[Box]:
    return [Box.from_arrays(lo, hi) for lo, hi in zip(level.lows, level.highs)]


def assert_levels_match_contains_points(
    dataset: SpatialDataset, dims_per_split=None, depth: int = 25, width: int = 3
) -> None:
    """Grow ``depth`` levels, splitting the ``width`` fullest splittable
    nodes of each, and hold every level to the per-child reference split."""
    level, labels = grow(dataset, dims_per_split)
    boxes = [dataset.domain]
    points = [dataset.points]

    def check(level: BoxLevel) -> None:
        assert labels.counts[level.depth].tolist() == [len(p) for p in points]
        assert level_boxes(level) == boxes

    for _ in range(depth):
        check(level)
        counts = labels.counts[level.depth]
        splittable = level.splittable()
        assert splittable.tolist() == [box.can_bisect(level.dims) for box in boxes]
        order = np.argsort(-counts, kind="stable")
        index = np.sort(order[splittable[order]][:width])
        assert index.size
        dims = level.dims
        level = split(level, labels, index)
        next_boxes, next_points = [], []
        for i in index:
            for child in boxes[i].bisect(dims):
                next_boxes.append(child)
                next_points.append(points[i][child.contains_points(points[i])])
        boxes, points = next_boxes, next_points
    check(level)
    assert level.depth == depth


class TestBoxLevel:
    def test_root_covers_domain(self, uniform_2d):
        root, labels = grow(uniform_2d)
        assert root.depth == 0
        assert level_boxes(root) == [uniform_2d.domain]
        assert labels.counts[0].tolist() == [uniform_2d.n]

    def test_default_fanout_is_2_pow_d(self, uniform_2d):
        root = BoxLevel.root(uniform_2d.domain)
        assert root.fanout == 4
        assert root.split(np.array([0])).size == 4

    def test_round_robin_fanout(self, uniform_2d):
        root = BoxLevel.root(uniform_2d.domain, dims_per_split=1)
        assert root.fanout == 2
        assert root.split(np.array([0])).size == 2

    def test_round_robin_rotates_dimensions(self, uniform_2d):
        root = BoxLevel.root(uniform_2d.domain, dims_per_split=1)
        first = root.split(np.array([0]))
        # The first split halves dim 0.
        assert first.highs[0].tolist() == [0.5, 1.0]
        # The next depth halves dim 1.
        second = first.split(np.array([0]))
        assert second.highs[0].tolist() == [0.5, 0.5]
        assert [root.dims, first.dims, second.dims] == [[0], [1], [0]]

    def test_invalid_dims_per_split(self, uniform_2d):
        with pytest.raises(ValueError):
            BoxLevel.root(uniform_2d.domain, dims_per_split=0)
        with pytest.raises(ValueError):
            BoxLevel.root(uniform_2d.domain, dims_per_split=3)

    def test_4d_split_fanout(self):
        assert BoxLevel.root(Box.unit(4)).fanout == 16
        assert BoxLevel.root(Box.unit(4), dims_per_split=2).fanout == 4


class TestPointLabels:
    def test_split_partitions_points(self, uniform_2d):
        root, labels = grow(uniform_2d)
        split(root, labels, [0])
        assert labels.counts[1].size == 4
        assert labels.counts[1].sum() == uniform_2d.n

    def test_score_is_monotone_under_split(self, clustered_2d):
        # The Section 3.5 requirement: children never outscore the parent,
        # and together they hold exactly its points.
        level, labels = grow(clustered_2d)
        for _ in range(8):
            nonempty = labels.counts[level.depth] > 0
            index = np.flatnonzero(level.splittable() & nonempty)
            parent = labels.counts[level.depth][index]
            level = split(level, labels, index)
            children = labels.counts[level.depth].reshape(index.size, level.fanout)
            assert (children <= parent[:, None]).all()
            np.testing.assert_array_equal(children.sum(axis=1), parent)


class TestSplitEquivalence:
    """Every level's labels reproduce the per-child ``contains_points`` masks."""

    def test_quadtree_partitions(self, clustered_2d):
        assert_levels_match_contains_points(clustered_2d)

    def test_round_robin_partitions(self, clustered_2d):
        assert_levels_match_contains_points(clustered_2d, dims_per_split=1)

    def test_4d_round_robin_partitions(self):
        pts = np.random.default_rng(3).uniform(0, 1, size=(500, 4)) * 0.999
        data = SpatialDataset(pts, Box.unit(4))
        assert_levels_match_contains_points(data, dims_per_split=3)

    def test_empty_children(self):
        # All points in one quadrant: three children must come out empty.
        data = SpatialDataset(np.full((50, 2), 0.1), Box.unit(2))
        level, labels = grow(data)
        level = split(level, labels, [0])
        assert labels.counts[1].tolist() == [50, 0, 0, 0]
        # Splitting an empty child keeps producing (empty) partitions.
        split(level, labels, [1])
        assert labels.counts[2].tolist() == [0, 0, 0, 0]

    def test_point_on_midpoint_goes_to_upper_child(self):
        data = SpatialDataset(np.array([[0.5, 0.5], [0.25, 0.25]]), Box.unit(2))
        level, labels = grow(data)
        split(level, labels, [0])
        # Half-open boxes: the midpoint belongs to the upper half.
        assert labels.counts[1].tolist() == [1, 0, 0, 1]
