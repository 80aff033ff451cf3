"""Equivalence tests for the flat array-backed query engine.

The flat engine must answer exactly like the frozen recursive §2.2
traversal over nodes (to float round-off) on any released tree — including
SimpleTree releases, whose internal counts are NOT the sum of their
children, which exercises the maximal-covered-node logic rather than
leaf-only shortcuts.
"""

import numpy as np
import pytest

from repro import from_spec
from repro.domains import Box
from repro.experiments.perf import (
    HistogramNode,
    reference_flat_from_nodes,
    reference_nodes_from_dict,
    reference_range_count,
    reference_range_count_arrays,
)
from repro.spatial import FlatHistogram, SpatialDataset, generate_workload
from repro.queries import RangeCount, Workload
from repro.serve import ReleaseStore
from repro.spatial.quadtree import _privtree_flat, _privtree_histogram, _simpletree_flat
from repro.spatial.serialize import tree_from_dict, tree_to_dict
from repro.experiments.perf import synthetic_flat_histogram

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
            _simpletree_flat(
                data, epsilon=1.0, height=5, theta=0.0, rng=seed
            ).to_tree()
        )
    data4 = random_dataset(5, n=2000, d=4)
    trees.append(_privtree_histogram(data4, epsilon=1.0, rng=5))
    trees.append(_privtree_histogram(random_dataset(6), epsilon=1.0, rng=6, dims_per_split=1))
    return trees


def frozen_nodes(tree) -> HistogramNode:
    """The root of ``tree`` as frozen reference nodes, via its JSON document."""
    return reference_nodes_from_dict(tree_to_dict(tree))


class TestCompilation:
    def test_arrays_mirror_tree(self):
        tree = _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        flat = FlatHistogram.from_tree(tree)
        assert flat.size == tree.size
        assert flat.leaf_count == tree.leaf_count
        assert flat.total_count == tree.total_count
        assert flat.ndim == 2
        nodes = list(frozen_nodes(tree).iter_nodes())
        for i, node in enumerate(nodes):
            assert tuple(flat.lows[i]) == node.box.low
            assert tuple(flat.highs[i]) == node.box.high
            assert flat.counts[i] == node.count

    def test_topology_consistent(self):
        flat = FlatHistogram.from_tree(
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
        rebuilt = FlatHistogram.from_tree(tree).to_tree()
        assert rebuilt.size == tree.size
        originals = list(frozen_nodes(tree).iter_nodes())
        copies = list(frozen_nodes(rebuilt).iter_nodes())
        for a, b in zip(originals, copies):
            assert a.box == b.box
            assert a.count == b.count

    def test_to_tree_rejects_an_inverted_box(self):
        # The arrays may come from an artifact written outside the
        # process: every rebuilt box is validated.
        flat = FlatHistogram(
            lows=np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0]]),
            highs=np.array([[1.0, 1.0], [0.5, 1.0], [0.25, 1.0]]),
            counts=np.array([3.0, 1.0, 2.0]),
            parents=np.array([-1, 0, 0], dtype=np.intp),
            child_offsets=np.array([0, 2, 2, 2], dtype=np.intp),
            child_index=np.array([1, 2], dtype=np.intp),
        )
        with pytest.raises(ValueError, match="degenerate extent"):
            flat.to_tree()

    def test_cached_on_histogram_tree(self):
        tree = _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        assert tree.flat() is tree.flat()

    def test_to_tree_statistics_read_the_arrays(self):
        flat = _privtree_flat(random_dataset(0), epsilon=1.0, rng=0)
        tree = flat.to_tree()
        assert (tree.size, tree.leaf_count, tree.height) == (
            flat.size, flat.leaf_count, flat.height
        )
        assert tree.total_count == flat.total_count
        assert tree.flat() is flat

    def test_statistics_match_the_frozen_node_walk(self):
        for tree in random_trees():
            root = frozen_nodes(tree)
            nodes = list(root.iter_nodes())
            leaves = [node for node in nodes if node.is_leaf]
            decoded = tree_from_dict(tree_to_dict(tree))
            assert (decoded.size, decoded.leaf_count, decoded.total_count) == (
                len(nodes), len(leaves), root.count
            )
            assert decoded.height == tree.height
            assert decoded == tree

    def test_json_round_trip_returns_the_fit_arrays(self):
        for tree in random_trees():
            flat, decoded = tree.flat(), tree_from_dict(tree_to_dict(tree)).flat()
            for name in ("lows", "highs", "counts", "parents", "child_offsets",
                         "child_index"):
                got, want = getattr(decoded, name), getattr(flat, name)
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)

    def test_from_tree_matches_the_frozen_node_compile(self):
        for tree in [*random_trees(), synthetic_flat_histogram(3).to_tree()]:
            flat = FlatHistogram.from_tree(tree)
            expected = reference_flat_from_nodes(frozen_nodes(tree))
            for name in ("lows", "highs", "counts", "parents", "child_offsets",
                         "child_index"):
                got, want = getattr(flat, name), getattr(expected, name)
                assert got.dtype == want.dtype, name
                np.testing.assert_array_equal(got, want, err_msg=name)

    def test_fit_put_get_answer_agree(self, tmp_path):
        data = random_dataset(2)
        boxes = generate_workload(data.domain, "medium", 20, rng=3)
        workload = Workload.of([RangeCount.of(box) for box in boxes])
        release = from_spec("privtree", epsilon=1.0).fit(data, rng=2)
        store = ReleaseStore(tmp_path / "store")
        loaded = store.get(store.put(release))
        for each in (release, loaded):
            assert (each.size, each.leaf_count, each.height) == (
                release.flat().size, release.flat().leaf_count, release.flat().height
            )
            assert each.query_domain == data.domain
            each.to_json_text()
        assert np.array_equal(loaded.answer(workload), release.answer(workload))


class TestEquivalence:
    @pytest.mark.parametrize("band", BANDS)
    def test_flat_matches_recursive_on_randomized_trees(self, band):
        for i, tree in enumerate(random_trees()):
            flat = tree.flat()
            root = frozen_nodes(tree)
            queries = generate_workload(tree.domain, band, 40, rng=100 + i)
            recursive = np.array([reference_range_count(root, q) for q in queries])
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
        tree = reference_flat_from_nodes(
            HistogramNode(box=Box.unit(2), count=42.0)
        ).to_tree()
        flat = FlatHistogram.from_tree(tree)
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
        root = HistogramNode(box=Box.unit(2), count=999.0, children=children)
        flat = reference_flat_from_nodes(root)
        whole = Box((-0.5, -0.5), (1.5, 1.5))
        # Whole-domain query hits the covered root: 999, not 1+2+3+4.
        assert flat.range_count(whole) == pytest.approx(999.0)
        assert reference_range_count(root, whole) == pytest.approx(999.0)
        half = Box((0.0, 0.0), (0.5, 1.0))
        assert flat.range_count(half) == pytest.approx(reference_range_count(root, half))


#: The releases the column traversal is held to byte for byte, as
#: (method, params, dimensions): PrivTree bisects, k-d tree releases split
#: at a private near-median, and SimpleTree's internal counts are not the
#: sums of its children's.
REFERENCE_RELEASES = [
    ("privtree", {}, 2),
    ("privtree", {"dims_per_split": 1}, 2),
    ("simpletree", {"height": 6}, 2),
    ("kdtree", {"height": 6}, 2),
    ("privtree", {}, 3),
    ("privtree", {"dims_per_split": 2}, 3),
    ("kdtree", {"height": 5}, 3),
]


def reference_batches(flat, seed):
    """(label, lows, highs) batches that reach every traversal branch."""
    domain = Box.from_arrays(flat.lows[0], flat.highs[0])
    gen = np.random.default_rng(seed)
    batches = []
    for j, band in enumerate(BANDS):
        boxes = generate_workload(domain, band, 500, rng=seed + j)
        lows = np.array([b.low for b in boxes])
        highs = np.array([b.high for b in boxes])
        batches.append((band, lows, highs))
    batches.append(("whole domain", flat.lows[:1], flat.highs[:1]))
    nodes = gen.choice(flat.size, size=min(flat.size, 300), replace=False)
    batches.append(("node boxes", flat.lows[nodes], flat.highs[nodes]))
    # Boxes reaching past the domain on some side, or lying wholly outside.
    extents = flat.highs[0] - flat.lows[0]
    centers = flat.lows[0] + gen.uniform(-0.2, 1.2, size=(300, flat.ndim)) * extents
    halves = gen.uniform(0.05, 0.6, size=(300, flat.ndim)) * extents
    batches.append(("outside", centers - halves, centers + halves))
    empty = np.empty((0, flat.ndim))
    batches.append(("empty", empty, empty))
    return batches


class TestFrozenReference:
    """The column traversal returns the bytes of the frozen row-wise one."""

    @pytest.mark.parametrize(
        "name, params, d",
        REFERENCE_RELEASES,
        ids=[
            "-".join([n, f"{d}d", *(f"{k}{v}" for k, v in p.items())])
            for n, p, d in REFERENCE_RELEASES
        ],
    )
    def test_answers_match_reference_byte_for_byte(self, name, params, d):
        data = random_dataset(2) if d == 2 else random_dataset(4, n=3000, d=3)
        flat = from_spec(name, epsilon=1.0, **params).fit(data, rng=d).flat()
        for batch, lows, highs in reference_batches(flat, seed=10 * d):
            expected = reference_range_count_arrays(flat, lows, highs)
            answers = flat.range_count_arrays(lows, highs)
            assert answers.dtype == expected.dtype, batch
            assert answers.tobytes() == expected.tobytes(), batch


class TestBatchedSurface:
    def test_empty_workload(self):
        tree = _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        assert tree.flat().range_count_many([]).shape == (0,)

    def test_dimension_mismatch_raises(self):
        flat = FlatHistogram.from_tree(
            _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        )
        with pytest.raises(ValueError):
            flat.range_count(Box.unit(3))
        with pytest.raises(ValueError):
            flat.range_count_many([Box.unit(3)])

    def test_tree_range_count_many_delegates(self):
        tree = _privtree_histogram(random_dataset(3), epsilon=1.0, rng=3)
        queries = generate_workload(tree.domain, "medium", 10, rng=9)
        root = frozen_nodes(tree)
        assert np.allclose(
            tree.range_count_many(queries),
            [reference_range_count(root, q) for q in queries],
        )


class TestFlatHistogramIsFrozen:
    def test_dataclass_frozen(self):
        flat = FlatHistogram.from_tree(
            _privtree_histogram(random_dataset(0), epsilon=1.0, rng=0)
        )
        with pytest.raises(AttributeError):
            flat.counts = np.zeros(1)
