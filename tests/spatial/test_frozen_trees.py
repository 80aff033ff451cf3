"""SimpleTree, the binary-SVT demo and ``privtree_decomposition``, held to
frozen node-at-a-time references.

All three grow :class:`~repro.spatial.level.BoxLevel` arrays.  The
references below grow :class:`repro.experiments.perf._ReferencePayload`
nodes instead (each node copies its points, found by per-child
``Box.contains_points`` scans) one at a time, popping a queue breadth
first with one scalar Laplace draw per node.  They share no code with
``BoxLevel``, ``PointLabels`` or ``grow_simpletree``, so a change to the
array path that alters a release fails here, byte for byte.
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
from repro.experiments.perf import _reference_privtree, _ReferencePayload
from repro.mechanisms.laplace import laplace_noise
from repro.mechanisms.rng import ensure_rng
from repro.spatial import (
    HistogramNode,
    HistogramTree,
    SpatialDataset,
    privtree_decomposition,
)
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
    return HistogramTree(root=root)


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
    return HistogramTree(root=root)


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
