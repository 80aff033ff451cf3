"""SimpleTree, the binary-SVT demo, ``privtree_decomposition`` and the
k-d tree, held to frozen node-at-a-time references.

The first three grow :class:`~repro.spatial.level.BoxLevel` arrays.  The
references below grow :class:`repro.experiments.perf._ReferencePayload`
nodes instead (each node copies its points, found by per-child
``Box.contains_points`` scans) one at a time, popping a queue breadth
first with one scalar Laplace draw per node.  They share no code with
``BoxLevel``, ``PointLabels`` or ``grow_simpletree``, so a change to the
array path that alters a release fails here, byte for byte.  The k-d tree
writes pre-order rows in its recursion; its reference builds
:class:`~repro.experiments.perf.HistogramNode` objects in the same
recursion.  The tree readers (leaf boxes, raster, leaf-depth rendering,
k-means seeding) are held to their walks over the frozen nodes.
"""

import json
import warnings
from collections import deque

import numpy as np
import pytest

from repro import from_spec
from repro.api import SpatialTreeRelease
from repro.core.params import PrivTreeParams
from repro.core.privtree import MaxDepthWarning
from repro.datasets import gowallalike, roadlike
from repro.domains import Box
from repro.applications.kmeans import _weighted_lloyd, privtree_kmeans
from repro.baselines.kdtree import _private_split_position
from repro.experiments.perf import (
    HistogramNode,
    _reference_privtree,
    _ReferencePayload,
    reference_flat_from_nodes,
    reference_nodes_from_dict,
    synthetic_flat_histogram,
)
from repro.mechanisms.laplace import laplace_noise
from repro.mechanisms.rng import ensure_rng
from repro.spatial import SpatialDataset, privtree_decomposition, render_leaf_depth
from repro.spatial.serialize import tree_to_dict
from repro.svt import binary_svt_decomposition


def _root_payload(dataset, dims_per_split):
    if dims_per_split is None:
        dims_per_split = dataset.ndim
    return _ReferencePayload(dataset.domain, dataset.points, dims_per_split)


def reference_simpletree(dataset, epsilon, height, theta, dims_per_split, rng):
    """Algorithm 1 node at a time: one scalar ``Lap(h/ε)`` draw per node,
    breadth first; the noisy scores are the released counts."""
    gen = ensure_rng(rng)
    lam = height / epsilon
    root_payload = _root_payload(dataset, dims_per_split)
    root = HistogramNode(box=root_payload.box, count=0.0)
    queue = deque([(root, root_payload, 0)])
    while queue:
        node, payload, depth = queue.popleft()
        node.count = payload.score() + laplace_noise(lam, rng=gen)
        if node.count > theta and depth < height - 1 and payload.can_split():
            for child_payload in payload.split():
                child = HistogramNode(box=child_payload.box, count=0.0)
                node.children.append(child)
                queue.append((child, child_payload, depth + 1))
    return reference_flat_from_nodes(root).to_tree()


def reference_binary_svt(
    dataset, epsilon, theta, dims_per_split=None, max_depth=24, rng=None
):
    """The binary-SVT demo's queue loop as it was before the array levels."""
    gen = ensure_rng(rng)
    lam = 2.0 / epsilon
    noisy_theta = theta + laplace_noise(lam, rng=gen)

    root_payload = _root_payload(dataset, dims_per_split)
    root = HistogramNode(box=root_payload.box, count=root_payload.score())
    queue = deque([(root, root_payload, 0)])
    while queue:
        node, payload, depth = queue.popleft()
        noisy = payload.score() + laplace_noise(lam, rng=gen)
        if noisy <= noisy_theta or depth >= max_depth or not payload.can_split():
            continue
        for child_payload in payload.split():
            child = HistogramNode(box=child_payload.box, count=child_payload.score())
            node.children.append(child)
            queue.append((child, child_payload, depth + 1))
    return reference_flat_from_nodes(root).to_tree()


def reference_kdtree(dataset, epsilon, height, split_fraction=0.3, rng=None):
    """The k-d tree node at a time, as it was built before the array rows:
    the same recursion and draws, each child a validated :class:`Box`, each
    internal count the ``sum`` of its children's."""
    gen = ensure_rng(rng)
    d = dataset.ndim
    levels = height - 1
    eps_split_level = split_fraction * epsilon / levels if levels else 0.0
    count_scale = 1.0 / ((1.0 - split_fraction) * epsilon)

    def build(box, points, depth):
        if depth >= levels:
            noisy = points.shape[0] + laplace_noise(count_scale, rng=gen)
            return HistogramNode(box=box, count=noisy)
        axis = depth % d
        lo, hi = box.low[axis], box.high[axis]
        cut = _private_split_position(points[:, axis], lo, hi, eps_split_level, gen)
        left_high = list(box.high)
        left_high[axis] = cut
        right_low = list(box.low)
        right_low[axis] = cut
        mask = points[:, axis] < cut
        children = [
            build(Box(box.low, tuple(left_high)), points[mask], depth + 1),
            build(Box(tuple(right_low), box.high), points[~mask], depth + 1),
        ]
        total = sum(c.count for c in children)
        return HistogramNode(box=box, count=total, children=children)

    return build(dataset.domain, dataset.points, 0)


def reference_to_grid(root, shape):
    """``HistogramTree.to_grid`` as it rasterized the leaves of a node tree."""
    domain = root.box
    grid = np.zeros(shape)
    edges = [
        np.linspace(domain.low[d], domain.high[d], shape[d] + 1)
        for d in range(domain.ndim)
    ]
    for leaf in (n for n in root.iter_nodes() if n.is_leaf):
        slices, weights = [], []
        for d in range(domain.ndim):
            lo, hi = leaf.box.low[d], leaf.box.high[d]
            first = max(int(np.searchsorted(edges[d], lo, side="right")) - 1, 0)
            last = min(int(np.searchsorted(edges[d], hi, side="left")), shape[d])
            if last <= first:
                slices = []
                break
            cell_lo = edges[d][first:last]
            cell_hi = edges[d][first + 1 : last + 1]
            overlap = np.minimum(cell_hi, hi) - np.maximum(cell_lo, lo)
            weights.append(overlap / (hi - lo))
            slices.append(slice(first, last))
        if not slices:
            continue
        block = weights[0]
        for w in weights[1:]:
            block = np.multiply.outer(block, w)
        grid[tuple(slices)] += leaf.count * block
    return grid


def reference_leaf_depth(root, width, height):
    """``render_leaf_depth`` as it walked a node tree, one cell at a time."""
    lo = np.asarray(root.box.low)
    hi = np.asarray(root.box.high)
    lines = []
    for r in range(height - 1, -1, -1):
        row = []
        y = lo[1] + (r + 0.5) / height * (hi[1] - lo[1])
        for c in range(width):
            x = lo[0] + (c + 0.5) / width * (hi[0] - lo[0])
            pt = np.asarray([(x, y)])
            node, depth = root, 0
            while node.children:
                for child in node.children:
                    if child.box.contains_points(pt)[0]:
                        node = child
                        depth += 1
                        break
                else:
                    break
            row.append(str(depth) if depth <= 9 else "+")
        lines.append("".join(row))
    return "\n".join(lines)


def _midpoints():
    pts = np.array([[0.5, 0.5], [0.25, 0.25], [0.75, 0.5], [0.5, 0.125]] * 30)
    return SpatialDataset(pts, Box.unit(2))


DATASETS = {
    "gowalla": lambda: gowallalike(1500, rng=0),
    "road": lambda: roadlike(1500, rng=1),
    "uniform_3d": lambda: SpatialDataset(
        np.random.default_rng(5).uniform(0, 1, (800, 3)) * 0.999, Box.unit(3)
    ),
    "empty": lambda: SpatialDataset(np.empty((0, 2)), Box.unit(2)),
    "midpoints": _midpoints,
    # Too thin to bisect in dim 1: every quadtree node is atomic.
    "atomic": lambda: SpatialDataset(
        np.full((40, 2), [0.5, 0.0]), Box((0.0, 0.0), (1.0, 5e-324))
    ),
}

#: (height, theta, dims_per_split): heights 1, 3 and 8, theta 0 and 20,
#: each in both split modes.
SIMPLETREE_KNOBS = [
    (height, theta, dims_per_split)
    for height in (1, 3, 8)
    for theta in (0.0, 20.0)
    for dims_per_split in (None, 1)
]


class TestFrozenReference:
    """Each tree, byte for byte against its node-at-a-time reference."""

    @pytest.mark.parametrize("name", DATASETS)
    def test_simpletree_matches_reference(self, name):
        dataset = DATASETS[name]()
        for case, (height, theta, dims_per_split) in enumerate(SIMPLETREE_KNOBS):
            if dataset.ndim == 3 and dims_per_split is None and theta == 0.0:
                # At theta 0 half the empty octree nodes split, so height 8
                # grows ~2 * 10^5 reference nodes; 3-D height 8 runs at theta 20.
                height = min(height, 5)
            for seed in (case, case + 100):
                release = from_spec(
                    "simpletree", epsilon=1.0, height=height, theta=theta,
                    dims_per_split=dims_per_split,
                ).fit(dataset, rng=seed)
                tree = reference_simpletree(
                    dataset, 1.0, height, theta, dims_per_split, seed
                )
                reference = SpatialTreeRelease(
                    tree, method="simpletree", epsilon_spent=1.0
                )
                assert release.to_json_text() == reference.to_json_text(), (
                    height, theta, dims_per_split, seed,
                )

    @pytest.mark.parametrize("name", DATASETS)
    def test_binary_svt_matches_reference(self, name):
        dataset = DATASETS[name]()
        for seed, (max_depth, theta, dims_per_split) in enumerate(
            [(24, 20.0, None), (24, 5.0, 1), (3, 0.0, None), (0, 0.0, 1)]
        ):
            kwargs = dict(
                epsilon=1.0, theta=theta, dims_per_split=dims_per_split,
                max_depth=max_depth, rng=seed,
            )
            got = json.dumps(tree_to_dict(binary_svt_decomposition(dataset, **kwargs)))
            want = json.dumps(tree_to_dict(reference_binary_svt(dataset, **kwargs)))
            assert got == want, (max_depth, theta, dims_per_split)

    @pytest.mark.parametrize("name", DATASETS)
    def test_decomposition_matches_reference(self, name):
        dataset = DATASETS[name]()
        for seed, (epsilon, theta, dims_per_split, max_depth) in enumerate(
            [(1.0, 0.0, None, 64), (0.5, 5.0, 1, 64), (1.0, 0.0, None, 4)]
        ):
            with warnings.catch_warnings():
                # The reference stops at the guard silently.
                warnings.simplefilter("ignore", MaxDepthWarning)
                root = privtree_decomposition(
                    dataset, epsilon, dims_per_split=dims_per_split, theta=theta,
                    rng=seed, max_depth=max_depth,
                )
            got = [
                (lo, hi)
                for level in root.levels()
                for lo, hi in zip(level.lows.tolist(), level.highs.tolist())
            ]
            payload = _root_payload(dataset, dims_per_split)
            params = PrivTreeParams.calibrate(
                epsilon, fanout=2**payload.dims_per_split, theta=theta
            )
            tree = _reference_privtree(payload, params, ensure_rng(seed), max_depth)
            frontier, want = [tree.root], []
            while frontier:
                want.extend(
                    (list(node.payload.box.low), list(node.payload.box.high))
                    for node in frontier
                )
                frontier = [child for node in frontier for child in node.children]
            assert got == want, (epsilon, theta, dims_per_split, max_depth)

    @pytest.mark.parametrize("name", ["gowalla", "road", "uniform_3d", "empty"])
    def test_kdtree_matches_reference(self, name):
        dataset = DATASETS[name]()
        for height in (1, 2, 6):
            for seed in (height, height + 100):
                release = from_spec("kdtree", epsilon=1.0, height=height).fit(
                    dataset, rng=seed
                )
                expected = reference_flat_from_nodes(
                    reference_kdtree(dataset, 1.0, height, rng=seed)
                )
                reference = SpatialTreeRelease(
                    flat=expected, method="kdtree", epsilon_spent=1.0
                )
                assert release.to_json_text() == reference.to_json_text(), (
                    height, seed,
                )
                for array in ("lows", "highs", "counts", "parents",
                              "child_offsets", "child_index"):
                    got = getattr(release.flat(), array)
                    want = getattr(expected, array)
                    assert got.dtype == want.dtype, (height, seed, array)
                    assert got.tobytes() == want.tobytes(), (height, seed, array)


#: A fitted tree (pre-order rows) and a synthetic one (level-order rows).
READER_TREES = {
    "fitted": lambda: from_spec("privtree", epsilon=1.0).fit(
        gowallalike(3000, rng=0), rng=4
    ).tree,
    "level_order": lambda: synthetic_flat_histogram(3).to_tree(),
}


@pytest.mark.parametrize("name", READER_TREES)
class TestReaders:
    """The leaf readers give what the walks over frozen nodes give."""

    def test_leaf_boxes_are_the_frozen_leaves_in_preorder(self, name):
        tree = READER_TREES[name]()
        root = reference_nodes_from_dict(tree_to_dict(tree))
        assert tree.leaf_boxes() == [n.box for n in root.iter_nodes() if n.is_leaf]

    def test_to_grid_matches_the_node_raster(self, name):
        tree = READER_TREES[name]()
        root = reference_nodes_from_dict(tree_to_dict(tree))
        for shape in ((7, 5), (1, 1), (64, 64)):
            expected = reference_to_grid(root, shape)
            assert tree.to_grid(shape).tobytes() == expected.tobytes(), shape

    def test_leaf_depth_matches_the_node_walk(self, name):
        tree = READER_TREES[name]()
        root = reference_nodes_from_dict(tree_to_dict(tree))
        for width, height in ((40, 12), (7, 3)):
            assert render_leaf_depth(tree, width, height) == reference_leaf_depth(
                root, width, height
            )

    def test_kmeans_seeds_from_the_frozen_leaves(self, name):
        tree = READER_TREES[name]()
        root = reference_nodes_from_dict(tree_to_dict(tree))
        leaves = [n for n in root.iter_nodes() if n.is_leaf]
        centers = np.array([leaf.box.center for leaf in leaves])
        weights = np.array([max(leaf.count, 0.0) for leaf in leaves])
        expected = _weighted_lloyd(centers, weights, 5, 10, ensure_rng(0))
        data = gowallalike(3000, rng=0)
        got = privtree_kmeans(data, 5, 1.0, synopsis=tree, rng=0)
        assert got.tobytes() == expected.tobytes()
