"""Property-based round-trip tests for the release serializers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SpatialTreeRelease
from repro.domains import Box
from repro.experiments.perf import (
    HistogramNode,
    PredictionSuffixTree,
    PSTNode,
    reference_flat_from_nodes,
    reference_nodes_from_dict,
    reference_pst_to_dict,
    reference_range_count,
)
from repro.sequence import Alphabet, pst_from_dict, pst_to_dict
from repro.spatial import tree_from_dict, tree_to_dict
from repro.spatial.flat import FlatHistogram
from repro.spatial.serialize import flat_to_dict, flat_to_json_text

counts = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def histogram_trees(draw, box=None, depth=0):
    box = box or Box.unit(2)
    count = draw(counts)
    children = []
    if depth < 3 and draw(st.booleans()):
        children = [
            draw(histogram_trees(box=child, depth=depth + 1))
            for child in box.bisect()
        ]
    return HistogramNode(box=box, count=count, children=children)


#: Float bit patterns whose JSON text has its own rules: signed zeros,
#: subnormals, values written in exponent form, and non-finite values.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e16, -1.5e300, 1e-300]
any_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())

#: The values a released tree holds: any finite float.
finite_floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def flat_histograms(draw):
    """A random released tree in pre-order or level order, with d = 1, 2 or 3.

    Parents come before their children and each node's children follow
    in row order, as in every writer's layout.  Every cell has ``low <
    high``, every child's box lies inside its parent's and every count
    is finite, which is all the constructor admits.
    """
    m = draw(st.integers(min_value=1, max_value=40))
    children = [[] for _ in range(m)]
    for node in range(1, m):
        children[draw(st.integers(min_value=0, max_value=node - 1))].append(node)
    if draw(st.sampled_from(["pre-order", "level order"])) == "pre-order":
        layout, stack = [], [0]
        while stack:
            node = stack.pop()
            layout.append(node)
            stack.extend(reversed(children[node]))
    else:
        layout = [0]
        for node in layout:  # grows while it is read: a breadth-first walk
            layout.extend(children[node])
    position = {node: i for i, node in enumerate(layout)}
    parents = np.full(m, -1, dtype=np.intp)
    for node in layout:
        for child in children[node]:
            parents[position[child]] = position[node]
    d = draw(st.integers(min_value=1, max_value=3))
    # Bounds repeat, as a parent's bounds and midpoints do in its children:
    # a cell is two ranks of one rising pool (``unique`` counts 0.0 and
    # -0.0 as one value), a child's ranks within its parent's.
    pool = sorted(draw(st.lists(finite_floats, min_size=2, max_size=6, unique=True)))
    low_ranks = np.zeros((m, d), dtype=int)
    high_ranks = np.full((m, d), len(pool) - 1)
    for row in range(1, m):  # the root spans the whole pool
        for k in range(d):
            parent_low = low_ranks[parents[row], k]
            parent_high = high_ranks[parents[row], k]
            low_ranks[row, k] = draw(st.integers(parent_low, parent_high - 1))
            high_ranks[row, k] = draw(st.integers(low_ranks[row, k] + 1, parent_high))
    return FlatHistogram(
        np.array(pool)[low_ranks],
        np.array(pool)[high_ranks],
        np.array(draw(st.lists(finite_floats, min_size=m, max_size=m)), dtype=float),
        parents,
    )


@st.composite
def psts(draw):
    size = draw(st.integers(min_value=1, max_value=3))
    alphabet = Alphabet.of_size(size)

    def node(context, depth):
        hist = np.asarray(
            draw(
                st.lists(
                    st.floats(min_value=0, max_value=1e5),
                    min_size=alphabet.hist_size,
                    max_size=alphabet.hist_size,
                )
            )
        )
        children = {}
        if depth < 2 and draw(st.booleans()):
            for code in list(range(size)) + [alphabet.start_code]:
                children[code] = node((code,) + context, depth + 1)
        return PSTNode(context=context, hist=hist, children=children)

    return PredictionSuffixTree(alphabet=alphabet, root=node((), 0))


class TestHistogramTreeRoundTrip:
    @given(root=histogram_trees())
    @settings(max_examples=60)
    def test_structure_and_counts_preserved(self, root):
        tree = reference_flat_from_nodes(root).to_tree()
        restored = tree_from_dict(tree_to_dict(tree))
        assert restored.size == tree.size
        restored_root = reference_nodes_from_dict(tree_to_dict(restored))
        originals = [(n.box, n.count) for n in root.iter_nodes()]
        restoreds = [(n.box, n.count) for n in restored_root.iter_nodes()]
        for (box_a, count_a), (box_b, count_b) in zip(originals, restoreds):
            assert box_a == box_b
            assert count_a == count_b

    @given(root=histogram_trees())
    @settings(max_examples=30)
    def test_query_equivalence(self, root):
        tree = reference_flat_from_nodes(root).to_tree()
        restored = tree_from_dict(tree_to_dict(tree))
        query = Box((0.25, 0.1), (0.8, 0.7))
        assert restored.range_count(query) == tree.range_count(query)
        restored_root = reference_nodes_from_dict(tree_to_dict(restored))
        assert reference_range_count(restored_root, query) == reference_range_count(
            root, query
        )


#: Node counts a JSON document may carry besides finite numbers:
#: non-finite values, and values ``float()`` takes or refuses.
ODD_COUNTS = [float("nan"), float("inf"), None, "1.5", "lots", True, 7]


@st.composite
def nested_boxes(draw, low, high):
    """A box inside ``[low, high]``; now and then an extent is empty."""
    new_low, new_high = [], []
    for lo, hi in zip(low, high):
        if lo < hi and draw(st.integers(0, 15)):
            pair = st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)
            a, b = sorted(draw(pair))
        else:
            a = b = draw(st.floats(lo, hi))
        new_low.append(a)
        new_high.append(b)
    return new_low, new_high


@st.composite
def tree_documents(draw, low=None, high=None, depth=0):
    """A ``repro.histogram_tree`` node in which every child lies inside its
    parent; now and then an extent is empty or a count malformed."""
    if low is None:
        d = draw(st.integers(1, 3))
        low, high = draw(nested_boxes([-10.0] * d, [10.0] * d))
    node = {"low": low, "high": high}
    odd = draw(st.integers(0, 15))
    if odd == 0:
        node["count"] = draw(st.sampled_from(ODD_COUNTS))
    elif odd != 1:  # and now and then a node has no count
        node["count"] = draw(st.floats(min_value=-1e6, max_value=1e6))
    if depth < 3 and draw(st.booleans()):
        node["children"] = [
            draw(tree_documents(*draw(nested_boxes(low, high)), depth=depth + 1))
            for _ in range(draw(st.integers(1, 3)))
        ]
    return node


class TestArrayDecoderAgreesWithFrozenNodeDecoder:
    """``tree_from_dict`` decodes into arrays what the frozen node decoder
    decodes into nodes, and refuses what it refuses."""

    @given(root=tree_documents())
    @settings(max_examples=200, deadline=None)
    def test_same_arrays_or_both_reject(self, root):
        document = {"format": "repro.histogram_tree", "version": 1, "root": root}
        try:
            expected = reference_flat_from_nodes(reference_nodes_from_dict(document))
        except ValueError:
            with pytest.raises(ValueError):
                tree_from_dict(document)
            return
        got = tree_from_dict(document).flat()
        for name in ("lows", "highs", "counts", "parents", "child_offsets", "child_index"):
            assert getattr(got, name).dtype == getattr(expected, name).dtype, name
            np.testing.assert_array_equal(
                getattr(got, name), getattr(expected, name), err_msg=name
            )


class TestJsonTextIdentity:
    """``to_json_text`` writes byte for byte ``json.dumps(to_json())``."""

    @given(
        flat=flat_histograms(),
        method=st.one_of(st.sampled_from(['k"d\\tree \u00e9\u2603']), st.text()),
        epsilon=any_floats,
    )
    @settings(max_examples=150, deadline=None)
    def test_spatial_tree_text_matches_json_dumps(self, flat, method, epsilon):
        release = SpatialTreeRelease(flat=flat, method=method, epsilon_spent=epsilon)
        assert release.to_json_text() == json.dumps(release.to_json())


class TestPstRoundTrip:
    """A PST written by the frozen node encoder, decoded into arrays and
    written again, keeps its structure and answers."""

    @given(model=psts())
    @settings(max_examples=60)
    def test_structure_preserved(self, model):
        restored = pst_from_dict(pst_to_dict(pst_from_dict(reference_pst_to_dict(model))))
        assert restored.size == model.size
        assert restored.alphabet == model.alphabet
        np.testing.assert_allclose(restored.hists[0], model.root.hist)

    @given(model=psts())
    @settings(max_examples=30)
    def test_frequency_equivalence(self, model):
        restored = pst_from_dict(pst_to_dict(pst_from_dict(reference_pst_to_dict(model))))
        for code in range(model.alphabet.size):
            assert restored.string_frequency((code,)) == model.string_frequency(
                (code,)
            )
