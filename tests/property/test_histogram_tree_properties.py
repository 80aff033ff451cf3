"""Property-based tests tying the histogram tree's query paths together."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import Box
from repro.experiments.perf import HistogramNode, reference_flat_from_nodes


@st.composite
def trees(draw, box=None, depth=0):
    box = box or Box.unit(2)
    count = draw(st.floats(min_value=0, max_value=1e5))
    children = []
    if depth < 3 and draw(st.booleans()):
        children = [draw(trees(box=b, depth=depth + 1)) for b in box.bisect()]
        # Keep intermediate counts consistent with children (the PrivTree
        # release invariant), so range counts are well-defined aggregates.
        count = sum(c.count for c in children)
    return HistogramNode(box=box, count=count, children=children)


@st.composite
def queries(draw):
    lows = [draw(st.floats(min_value=0.0, max_value=0.95)) for _ in range(2)]
    highs = [
        min(1.0, lo + draw(st.floats(min_value=0.01, max_value=1.0))) for lo in lows
    ]
    return Box(tuple(lows), tuple(highs))


class TestTraversalProperties:
    @given(root=trees())
    @settings(max_examples=60)
    def test_full_domain_equals_root_count(self, root):
        tree = reference_flat_from_nodes(root).to_tree()
        assert np.isclose(tree.range_count(Box.unit(2)), root.count, rtol=1e-9)

    @given(root=trees(), query=queries(), data=st.data())
    @settings(max_examples=80)
    def test_additive_over_split_queries(self, root, query, data):
        tree = reference_flat_from_nodes(root).to_tree()
        frac = data.draw(st.floats(min_value=0.2, max_value=0.8))
        cut = query.low[0] + frac * (query.high[0] - query.low[0])
        if not (query.low[0] < cut < query.high[0]):
            return
        left = Box(query.low, (cut, query.high[1]))
        right = Box((cut, query.low[1]), query.high)
        total = tree.range_count(query)
        assert np.isclose(
            total, tree.range_count(left) + tree.range_count(right),
            rtol=1e-9, atol=1e-6,
        )

    @given(root=trees(), query=queries())
    @settings(max_examples=60)
    def test_monotone_in_query_for_nonnegative_counts(self, root, query):
        tree = reference_flat_from_nodes(root).to_tree()
        grown = Box(
            tuple(max(0.0, lo - 0.05) for lo in query.low),
            tuple(min(1.0, hi + 0.05) for hi in query.high),
        )
        assert tree.range_count(query) <= tree.range_count(grown) + 1e-6

    @given(root=trees(), query=queries())
    @settings(max_examples=60)
    def test_to_grid_consistent_with_range_count(self, root, query):
        tree = reference_flat_from_nodes(root).to_tree()
        grid = tree.to_grid((4, 4))
        assert np.isclose(grid.sum(), tree.range_count(Box.unit(2)), rtol=1e-9, atol=1e-6)
