"""Equivalence tests for the flat array-backed query engine.

The flat engine must answer exactly like the recursive §2.2 traversal (to
float round-off) on any released tree — including SimpleTree releases,
whose internal counts are NOT the sum of their children, which exercises
the maximal-covered-node logic rather than leaf-only shortcuts.
"""

import numpy as np
import pytest

from repro.domains import Box
from repro.spatial import (
    FlatHistogram,
    HistogramNode,
    HistogramTree,
    SpatialDataset,
    flatten_tree,
    generate_workload,
)
from repro.spatial.quadtree import _privtree_histogram, _simpletree_histogram

BANDS = ["small", "medium", "large"]


def random_dataset(seed: int, n: int = 4000, d: int = 2) -> SpatialDataset:
    gen = np.random.default_rng(seed)
    mode = seed % 3
    if mode == 0:
        pts = gen.uniform(0, 1, size=(n, d)) * 0.999
    elif mode == 1:
        pts = np.clip(gen.normal(0.5, 0.12, size=(n, d)), 0, 0.999)
    else:
        centers = gen.uniform(0.1, 0.9, size=(4, d))
        pts = np.clip(
            centers[gen.integers(4, size=n)] + gen.normal(0, 0.03, size=(n, d)),
            0,
            0.999,
        )
    return SpatialDataset(pts, Box.unit(d))


def random_trees():
    """A varied set of released trees: PrivTree and SimpleTree, 2-d and 4-d."""
    trees = []
    for seed in range(4):
        data = random_dataset(seed)
        trees.append(_privtree_histogram(data, epsilon=1.0, rng=seed))
        trees.append(
            _simpletree_histogram(data, epsilon=1.0, height=5, theta=0.0, rng=seed)
        )
    data4 = random_dataset(5, n=2000, d=4)
    trees.append(_privtree_histogram(data4, epsilon=1.0, rng=5))
    trees.append(_privtree_histogram(random_dataset(6), epsilon=1.0, rng=6, dims_per_split=1))
    return trees


class TestCompilation:
    def test_arrays_mirror_tree(self):
        tree = _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        flat = flatten_tree(tree)
        assert flat.size == tree.size
        assert flat.leaf_count == tree.leaf_count
        assert flat.total_count == tree.total_count
        assert flat.ndim == 2
        nodes = list(tree.root.iter_nodes())
        for i, node in enumerate(nodes):
            assert tuple(flat.lows[i]) == node.box.low
            assert tuple(flat.highs[i]) == node.box.high
            assert flat.counts[i] == node.count

    def test_topology_consistent(self):
        flat = flatten_tree(
            _privtree_histogram(random_dataset(1), epsilon=1.0, rng=1)
        )
        assert flat.parents[0] == -1
        for i in range(flat.size):
            children = flat.child_index[
                flat.child_offsets[i] : flat.child_offsets[i + 1]
            ]
            for c in children:
                assert flat.parents[c] == i
        # Every non-root node appears exactly once as someone's child.
        assert sorted(flat.child_index) == list(range(1, flat.size))

    def test_to_tree_round_trip(self):
        tree = _privtree_histogram(random_dataset(2), epsilon=1.0, rng=2)
        rebuilt = flatten_tree(tree).to_tree()
        assert rebuilt.size == tree.size
        originals = list(tree.root.iter_nodes())
        copies = list(rebuilt.root.iter_nodes())
        for a, b in zip(originals, copies):
            assert a.box == b.box
            assert a.count == b.count

    def test_cached_on_histogram_tree(self):
        tree = _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        assert tree.flat() is tree.flat()


class TestEquivalence:
    @pytest.mark.parametrize("band", BANDS)
    def test_flat_matches_recursive_on_randomized_trees(self, band):
        for i, tree in enumerate(random_trees()):
            flat = tree.flat()
            domain = tree.root.box
            queries = generate_workload(domain, band, 40, rng=100 + i)
            recursive = np.array([tree.range_count(q) for q in queries])
            batched = flat.range_count_many(queries)
            single = np.array([flat.range_count(q) for q in queries])
            scale = max(1.0, float(np.abs(recursive).max()))
            assert np.abs(batched - recursive).max() <= 1e-9 * scale
            assert np.abs(single - recursive).max() <= 1e-9 * scale

    def test_query_covering_whole_domain(self):
        tree = _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        whole = Box((-1.0, -1.0), (2.0, 2.0))
        assert tree.flat().range_count(whole) == pytest.approx(tree.total_count)

    def test_query_outside_domain(self):
        tree = _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        outside = Box((2.0, 2.0), (3.0, 3.0))
        assert tree.flat().range_count(outside) == 0.0

    def test_single_node_tree(self):
        tree = HistogramTree(root=HistogramNode(box=Box.unit(2), count=42.0))
        flat = flatten_tree(tree)
        assert flat.range_count(Box((0.0, 0.0), (0.5, 0.5))) == pytest.approx(10.5)
        assert flat.range_count(Box((-1.0, -1.0), (2.0, 2.0))) == pytest.approx(42.0)

    def test_non_sum_consistent_counts(self):
        # Internal counts unrelated to children: the traversal's
        # maximal-covered semantics must be preserved exactly.
        quadrants = Box.unit(2).bisect()
        children = [
            HistogramNode(box=b, count=c)
            for b, c in zip(quadrants, [1.0, 2.0, 3.0, 4.0])
        ]
        tree = HistogramTree(
            root=HistogramNode(box=Box.unit(2), count=999.0, children=children)
        )
        flat = flatten_tree(tree)
        whole = Box((-0.5, -0.5), (1.5, 1.5))
        # Whole-domain query hits the covered root: 999, not 1+2+3+4.
        assert flat.range_count(whole) == pytest.approx(999.0)
        assert tree.range_count(whole) == pytest.approx(999.0)
        half = Box((0.0, 0.0), (0.5, 1.0))
        assert flat.range_count(half) == pytest.approx(tree.range_count(half))


class TestBatchedSurface:
    def test_empty_workload(self):
        tree = _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        assert tree.flat().range_count_many([]).shape == (0,)

    def test_dimension_mismatch_raises(self):
        flat = flatten_tree(
            _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        )
        with pytest.raises(ValueError):
            flat.range_count(Box.unit(3))
        with pytest.raises(ValueError):
            flat.range_count_many([Box.unit(3)])

    def test_tree_range_count_many_delegates(self):
        tree = _privtree_histogram(random_dataset(3), epsilon=1.0, rng=3)
        queries = generate_workload(tree.root.box, "medium", 10, rng=9)
        assert np.allclose(
            tree.range_count_many(queries),
            [tree.range_count(q) for q in queries],
        )


class TestFlatHistogramIsFrozen:
    def test_dataclass_frozen(self):
        flat = flatten_tree(
            _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        )
        with pytest.raises(AttributeError):
            flat.counts = np.zeros(1)
