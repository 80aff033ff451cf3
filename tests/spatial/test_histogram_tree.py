"""Tests for the released histogram tree and its range-count traversal."""

import pytest

from repro.domains import Box
from repro.spatial import HistogramTree, tree_from_dict


def node(box: Box, count: float, children=()) -> dict:
    """One node of a ``repro.histogram_tree`` document."""
    doc = {"low": list(box.low), "high": list(box.high), "count": count}
    if children:
        doc["children"] = list(children)
    return doc


def tree_of(root: dict) -> HistogramTree:
    return tree_from_dict({"format": "repro.histogram_tree", "version": 1, "root": root})


def two_level_tree() -> HistogramTree:
    """Unit square split into quadrants with known counts 10/20/30/40."""
    quadrants = Box.unit(2).bisect()
    counts = [10.0, 20.0, 30.0, 40.0]
    children = [node(b, c) for b, c in zip(quadrants, counts)]
    return tree_of(node(Box.unit(2), 100.0, children))


class TestStructure:
    def test_counts_and_sizes(self):
        tree = two_level_tree()
        assert tree.size == 5
        assert tree.leaf_count == 4
        assert tree.height == 1
        assert tree.total_count == 100.0

    def test_leaf_boxes(self):
        assert len(two_level_tree().leaf_boxes()) == 4


class TestRangeCount:
    def test_full_domain(self):
        assert two_level_tree().range_count(Box.unit(2)) == pytest.approx(100.0)

    def test_exact_quadrant_uses_node_count(self):
        tree = two_level_tree()
        quadrant = Box((0.0, 0.0), (0.5, 0.5))
        assert tree.range_count(quadrant) == pytest.approx(10.0)

    def test_disjoint_query_is_zero(self):
        tree = two_level_tree()
        outside = Box((2.0, 2.0), (3.0, 3.0))
        assert tree.range_count(outside) == 0.0

    def test_partial_leaf_uses_uniform_fraction(self):
        tree = two_level_tree()
        # Query = left half of the lower-left quadrant: fraction 1/2 of it.
        query = Box((0.0, 0.0), (0.25, 0.5))
        assert tree.range_count(query) == pytest.approx(10.0 * 0.5)

    def test_query_spanning_multiple_children(self):
        tree = two_level_tree()
        # Lower half: all of quadrants (0,0)-(.5,.5) and (.5,0)-(1,.5).
        # Order of bisect children: (low,low), (low,high), (high,low), (high,high)
        query = Box((0.0, 0.0), (1.0, 0.5))
        # Quadrants fully covered: those with y-range [0, .5): counts 10 and 30.
        assert tree.range_count(query) == pytest.approx(40.0)

    def test_mixed_full_and_partial(self):
        tree = two_level_tree()
        # x in [0,1), y in [0, 0.75): two full quadrants + half of the two upper.
        query = Box((0.0, 0.0), (1.0, 0.75))
        expected = 10.0 + 30.0 + 0.5 * (20.0 + 40.0)
        assert tree.range_count(query) == pytest.approx(expected)

    def test_intermediate_count_used_when_fully_contained(self):
        # A root-only tree answers from the root count directly.
        tree = tree_of(node(Box.unit(2), 55.0))
        assert tree.range_count(Box.unit(2)) == pytest.approx(55.0)
        assert tree.range_count(Box((0.0, 0.0), (0.5, 1.0))) == pytest.approx(27.5)
