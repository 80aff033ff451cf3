"""Tests for the shard-side collector."""

import numpy as np
import pytest

from repro.domains import Box
from repro.federated import MASK_DTYPE, SecureAggregator, ShardCollector
from repro.spatial import SpatialDataset

from .conftest import MALFORMED_SPLITS


def _collectors(dataset, n_shards=2, seed=3, **kwargs):
    shards = [
        SpatialDataset(dataset.points[i::n_shards], dataset.domain, name=f"s{i}")
        for i in range(n_shards)
    ]
    return [
        ShardCollector(i, n_shards, shard, blinding_seed=seed, **kwargs)
        for i, shard in enumerate(shards)
    ], shards


class TestNodeNumbers:
    def test_children_take_the_next_numbers(self, clustered_2d):
        # Breadth-first: the root is 0, its children 1-4; splitting nodes
        # 2 and 4 numbers their children 5-8 and 9-12, in Box.bisect order.
        collectors, _ = _collectors(clustered_2d, n_shards=3)
        agg = SecureAggregator(3)
        for split in ([0], [2, 4]):
            for c in collectors:
                c.apply_splits(split)
        children = clustered_2d.domain.bisect([0, 1])
        boxes = [clustered_2d.domain, *children] + [
            box for parent in (children[1], children[3]) for box in parent.bisect([0, 1])
        ]
        counts = agg.aggregate([c.blinded_counts(np.arange(13)) for c in collectors])
        expected = [box.count_points(clustered_2d.points) for box in boxes]
        assert counts.tolist() == expected


class TestShardCollector:
    def test_properties(self, uniform_2d):
        collectors, shards = _collectors(uniform_2d, n_shards=3)
        for collector, shard in zip(collectors, shards):
            assert collector.domain == uniform_2d.domain
            assert collector.n_points == shard.n
            assert collector.dims_per_split == 2

    def test_dims_per_split_override(self, uniform_2d):
        collectors, _ = _collectors(uniform_2d, dims_per_split=1)
        assert collectors[0].dims_per_split == 1

    def test_aggregated_root_count_is_global(self, uniform_2d):
        collectors, _ = _collectors(uniform_2d, n_shards=3)
        agg = SecureAggregator(3)
        counts = agg.aggregate([c.blinded_counts([0]) for c in collectors])
        assert counts.tolist() == [uniform_2d.n]

    def test_split_children_counts_match_geometry(self, clustered_2d):
        # After a split, each child's aggregated count must equal a direct
        # half-open box count over the concatenated points — the collectors'
        # payload windows and the public Box.count_points agree exactly.
        collectors, _ = _collectors(clustered_2d, n_shards=3)
        agg = SecureAggregator(3)
        for c in collectors:
            c.apply_splits([0])
        counts = agg.aggregate([c.blinded_counts([1, 2, 3, 4]) for c in collectors])
        child_boxes = clustered_2d.domain.bisect([0, 1])
        expected = [box.count_points(clustered_2d.points) for box in child_boxes]
        assert counts.tolist() == expected
        assert sum(expected) == clustered_2d.n

    def test_blinded_counts_never_equal_raw_counts(self, clustered_2d):
        # The wire-visible share is count + one-time pad; the raw per-shard
        # count must not appear in it.
        collectors, shards = _collectors(clustered_2d, n_shards=3)
        for c in collectors:
            c.apply_splits([0])
        ids = [0, 1, 2, 3, 4]
        boxes = [clustered_2d.domain] + list(clustered_2d.domain.bisect([0, 1]))
        for collector, shard in zip(collectors, shards):
            raw = np.array(
                [box.count_points(shard.points) for box in boxes], dtype=MASK_DTYPE
            )
            share = collector.blinded_counts(ids)
            assert share.dtype == MASK_DTYPE
            assert not np.any(share == raw)

    def test_unknown_node_id_is_a_protocol_error(self, uniform_2d):
        collectors, _ = _collectors(uniform_2d)
        with pytest.raises(KeyError, match="has no node 1"):
            collectors[0].blinded_counts([1])
        with pytest.raises(KeyError, match="has no node -1"):
            collectors[0].blinded_counts([0, -1])
        with pytest.raises(KeyError, match="split a node before"):
            collectors[0].apply_splits([9])

    @pytest.mark.parametrize("case", sorted(MALFORMED_SPLITS))
    def test_malformed_splits_round_is_a_protocol_error(self, case):
        # Only distinct splittable nodes of the deepest level, in ascending
        # order, may split; anything else is a sequencing bug, never a
        # silent no-op or a crash inside the geometry.
        dataset, committed, bad, _ = MALFORMED_SPLITS[case]()
        collector = ShardCollector(0, 2, dataset)
        for round_ids in committed:
            collector.apply_splits(round_ids)
        with pytest.raises(KeyError, match="shard 0 names"):
            collector.apply_splits(bad)

    def test_empty_shard_participates(self):
        # A collector with zero points still answers every round (its counts
        # are all zero but its masks are still needed for cancellation).
        gen = np.random.default_rng(0)
        pts = gen.uniform(0, 1, size=(40, 2)) * 0.999999
        full = SpatialDataset(pts, Box.unit(2), name="d")
        empty = SpatialDataset(np.empty((0, 2)), Box.unit(2), name="e")
        collectors = [
            ShardCollector(0, 2, full, blinding_seed=1),
            ShardCollector(1, 2, empty, blinding_seed=1),
        ]
        agg = SecureAggregator(2)
        counts = agg.aggregate([c.blinded_counts([0]) for c in collectors])
        assert counts.tolist() == [40]
