"""Tests for the federated coordinator: bit-identity and protocol hygiene."""

import warnings

import numpy as np
import pytest

from repro import from_spec
from repro.api import SpatialTreeRelease
from repro.core.privtree import MaxDepthWarning
from repro.experiments.perf import reference_privtree_histogram
from repro.federated import (
    MASK_DTYPE,
    FederatedPrivTree,
    PairwiseBlinder,
    SecureAggregator,
    ShardCollector,
    federated_privtree_histogram,
    loopback_collectors,
    shard_dataset,
)
from repro.mechanisms import PrivacyAccountant
from repro.domains import Box
from repro.spatial import SpatialDataset
from repro.spatial.flat import FlatHistogram
from repro.spatial.quadtree import _privtree_histogram
from repro.spatial.serialize import tree_to_dict


def _two_ulps_wide() -> SpatialDataset:
    low = 0.5
    one_up = np.nextafter(low, 1.0)
    domain = Box((low, low), (np.nextafter(one_up, 1.0),) * 2)
    points = np.array([[low, low], [one_up, low], [low, one_up], [one_up, one_up]] * 5)
    return SpatialDataset(points, domain)


def _skewed(d: int) -> np.ndarray:
    return np.random.default_rng(d).uniform(size=(3_000, d)) ** 3


#: Datasets at the edges of the array levels: name -> (dataset, fit knobs).
EDGE_CASES = {
    "empty": lambda: (SpatialDataset(np.empty((0, 2)), Box.unit(2)), {}),
    "one_point": lambda: (SpatialDataset(np.array([[0.3, 0.7]]), Box.unit(2)), {}),
    "on_midpoints": lambda: (
        SpatialDataset(
            np.array([[0.5, 0.5], [0.25, 0.5], [0.5, 0.75], [0.75, 0.25]] * 50),
            Box.unit(2),
        ),
        {},
    ),
    "duplicates_past_max_depth": lambda: (
        SpatialDataset(np.full((3_000, 2), 0.123456), Box.unit(2)),
        {"max_depth": 20},
    ),
    "3d_two_dims_per_split": lambda: (
        SpatialDataset(_skewed(3), Box.unit(3)),
        {"dims_per_split": 2},
    ),
    "3d_one_dim_geometric": lambda: (
        SpatialDataset(_skewed(3), Box.unit(3)),
        {"dims_per_split": 1, "count_mechanism": "geometric"},
    ),
    "two_ulps_wide": lambda: (_two_ulps_wide(), {}),
}


def _reference(dataset, kwargs):
    kwargs = dict(kwargs)
    return reference_privtree_histogram(
        dataset, kwargs.pop("epsilon"), kwargs.pop("rng"), **kwargs
    )


def _three_fits(dataset, n_shards, kwargs, *, warns=False):
    """The centralized, in-process federated and loopback-wire fits."""
    kwargs = dict(kwargs)
    epsilon = kwargs.pop("epsilon")
    dims_per_split = kwargs.pop("dims_per_split", None)
    shards = shard_dataset(dataset, n_shards)
    clients = loopback_collectors(
        [
            ShardCollector(i, n_shards, shard, dims_per_split=dims_per_split)
            for i, shard in enumerate(shards)
        ],
        session="reference",
    )
    fits = [
        lambda: _privtree_histogram(
            dataset, epsilon, dims_per_split=dims_per_split, **kwargs
        ),
        lambda: federated_privtree_histogram(
            shards, epsilon, dims_per_split=dims_per_split, **kwargs
        ),
        lambda: FederatedPrivTree(clients).fit_histogram(epsilon, **kwargs),
    ]
    for fit in fits:
        if warns:
            with pytest.warns(MaxDepthWarning):
                yield fit()
        else:
            yield fit()


def assert_same_release(fit, reference):
    """Equal trees, and equal flat arrays down to their dtypes."""
    assert tree_to_dict(fit) == tree_to_dict(reference)
    expected = FlatHistogram.from_tree(reference)
    for name in ("lows", "highs", "counts", "parents", "child_offsets", "child_index"):
        got, want = getattr(fit.flat(), name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestShardDataset:
    def test_partitions_preserve_points_and_domain(self, uniform_2d):
        shards = shard_dataset(uniform_2d, 3)
        assert len(shards) == 3
        assert sum(s.n for s in shards) == uniform_2d.n
        for s in shards:
            assert s.domain == uniform_2d.domain
        rebuilt = np.vstack([s.points for s in shards])
        assert sorted(map(tuple, rebuilt)) == sorted(map(tuple, uniform_2d.points))

    def test_rejects_single_shard(self, uniform_2d):
        with pytest.raises(ValueError, match="at least 2"):
            shard_dataset(uniform_2d, 1)


class TestBitIdentity:
    """The headline guarantee: federated == centralized, bit for bit."""

    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    def test_default_parameters(self, clustered_2d, n_shards):
        central = _privtree_histogram(clustered_2d, epsilon=1.0, rng=0)
        federated = federated_privtree_histogram(
            shard_dataset(clustered_2d, n_shards), epsilon=1.0, rng=0
        )
        assert tree_to_dict(federated) == tree_to_dict(central)
        # Both fits above run the same level loop and leaf release, so
        # each is also held to the frozen node-at-a-time reference
        # engine, which shares no code with them.
        reference = tree_to_dict(
            reference_privtree_histogram(clustered_2d, epsilon=1.0, rng=0)
        )
        clients = loopback_collectors(
            [
                ShardCollector(i, n_shards, shard)
                for i, shard in enumerate(shard_dataset(clustered_2d, n_shards))
            ],
            session="bit-identity",
        )
        over_wire = FederatedPrivTree(clients).fit_histogram(1.0, rng=0)
        for fit in (central, federated, over_wire):
            assert tree_to_dict(fit) == reference

    def test_every_knob_turned(self, clustered_2d):
        kwargs = dict(
            epsilon=2.0,
            dims_per_split=1,
            theta=0.5,
            tree_fraction=0.3,
            tuples_per_individual=3,
            count_mechanism="geometric",
            rng=17,
        )
        central = _privtree_histogram(clustered_2d, **kwargs)
        federated = federated_privtree_histogram(
            shard_dataset(clustered_2d, 4), **kwargs
        )
        assert tree_to_dict(federated) == tree_to_dict(central)
        # All three fits are held to the frozen node-at-a-time reference.
        for fit in _three_fits(clustered_2d, 4, kwargs):
            assert_same_release(fit, _reference(clustered_2d, kwargs))

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_edge_datasets_match_the_reference(self, case, seed):
        dataset, knobs = EDGE_CASES[case]()
        kwargs = dict(epsilon=1.0, rng=seed, **knobs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MaxDepthWarning)
            reference = _reference(dataset, kwargs)
        warns = "max_depth" in knobs
        for fit in _three_fits(dataset, 2, kwargs, warns=warns):
            assert_same_release(fit, reference)

    def test_identity_is_invariant_to_the_partition(self, clustered_2d):
        # Any split of the points yields the same release: aggregated counts
        # are partition-invariant and all noise is the coordinator's.
        round_robin = shard_dataset(clustered_2d, 3)
        cut = clustered_2d.n // 2
        lopsided = [
            SpatialDataset(clustered_2d.points[:cut], clustered_2d.domain, name="a"),
            SpatialDataset(clustered_2d.points[cut:], clustered_2d.domain, name="b"),
        ]
        a = federated_privtree_histogram(round_robin, epsilon=1.0, rng=5)
        b = federated_privtree_histogram(lopsided, epsilon=1.0, rng=5)
        assert tree_to_dict(a) == tree_to_dict(b)

    def test_identity_is_invariant_to_the_blinding_seed(self, clustered_2d):
        shards = shard_dataset(clustered_2d, 3)
        a = federated_privtree_histogram(shards, epsilon=1.0, rng=2, blinding_seed=0)
        b = federated_privtree_histogram(shards, epsilon=1.0, rng=2, blinding_seed=123)
        assert tree_to_dict(a) == tree_to_dict(b)

    def test_max_depth_guard_warns_like_the_engine(self, clustered_2d):
        with pytest.warns(MaxDepthWarning):
            federated = federated_privtree_histogram(
                shard_dataset(clustered_2d, 2), epsilon=8.0, rng=0, max_depth=2
            )
        with pytest.warns(MaxDepthWarning):
            central = _privtree_histogram(clustered_2d, epsilon=8.0, rng=0, max_depth=2)
        assert tree_to_dict(federated) == tree_to_dict(central)


class TestTreeOverArrays:
    """The fit returns the tree over its arrays, equal to the centralized one."""

    def test_loopback_fit_reads_the_centralized_arrays(self, clustered_2d):
        tree = federated_privtree_histogram(
            shard_dataset(clustered_2d, 3), epsilon=1.0, rng=0
        )
        release = SpatialTreeRelease(tree, method="privtree_federated", epsilon_spent=1.0)
        flat = tree.flat()
        for each in (tree, release):
            assert (each.size, each.leaf_count, each.height) == (
                flat.size, flat.leaf_count, flat.height
            )
        assert release.query_domain == clustered_2d.domain
        central = _privtree_histogram(clustered_2d, epsilon=1.0, rng=0)
        assert tree_to_dict(tree) == tree_to_dict(central)
        assert tree == central

    def test_estimator_fit_statistics_read_the_arrays(self, clustered_2d):
        release = from_spec("privtree_federated", epsilon=1.0, n_shards=3).fit(
            clustered_2d, rng=0
        )
        assert release.size == release.flat().size
        assert release.height == release.flat().height
        assert release.query_domain == clustered_2d.domain


class TestAccounting:
    def test_spends_like_the_centralized_fit(self, uniform_2d):
        acct = PrivacyAccountant(1.0)
        federated_privtree_histogram(
            shard_dataset(uniform_2d, 2),
            epsilon=1.0,
            tree_fraction=0.4,
            rng=0,
            accountant=acct,
        )
        assert [label for label, _ in acct.ledger] == [
            "privtree/tree structure",
            "privtree/leaf counts",
        ]
        assert acct.spent == pytest.approx(1.0)

    def test_label_prefix_namespaces_the_ledger(self, uniform_2d):
        acct = PrivacyAccountant(1.0)
        federated_privtree_histogram(
            shard_dataset(uniform_2d, 2),
            epsilon=1.0,
            rng=0,
            accountant=acct,
            label_prefix="epoch 0007/privtree",
        )
        assert [label for label, _ in acct.ledger] == [
            "epoch 0007/privtree/tree structure",
            "epoch 0007/privtree/leaf counts",
        ]


class TestValidation:
    def test_rejects_fewer_than_two_collectors(self, uniform_2d):
        collector = ShardCollector(0, 2, uniform_2d)
        with pytest.raises(ValueError, match="at least 2 collectors"):
            FederatedPrivTree([collector])

    def test_rejects_domain_mismatch(self, uniform_2d):
        half_box = uniform_2d.domain.bisect([0])[0]
        inside = uniform_2d.points[half_box.contains_points(uniform_2d.points)]
        half = SpatialDataset(inside, half_box, name="half")
        with pytest.raises(ValueError, match="global domain"):
            FederatedPrivTree(
                [ShardCollector(0, 2, uniform_2d), ShardCollector(1, 2, half)]
            )

    def test_rejects_dims_per_split_mismatch(self, uniform_2d):
        with pytest.raises(ValueError, match="dims_per_split"):
            FederatedPrivTree(
                [
                    ShardCollector(0, 2, uniform_2d, dims_per_split=1),
                    ShardCollector(1, 2, uniform_2d, dims_per_split=2),
                ]
            )

    def test_rejects_aggregator_size_mismatch(self, uniform_2d):
        collectors = [ShardCollector(i, 2, uniform_2d) for i in range(2)]
        with pytest.raises(ValueError, match="aggregator expects 3"):
            FederatedPrivTree(collectors, SecureAggregator(3))

    @pytest.mark.parametrize(
        "bad",
        [
            {"tree_fraction": 0.0},
            {"tree_fraction": 1.0},
            {"tuples_per_individual": 0},
            {"count_mechanism": "gaussian"},
        ],
    )
    def test_rejects_bad_fit_parameters(self, uniform_2d, bad):
        with pytest.raises(ValueError):
            federated_privtree_histogram(
                shard_dataset(uniform_2d, 2), epsilon=1.0, rng=0, **bad
            )


class _WireTap(ShardCollector):
    """A collector that records everything it puts on the wire."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted: list[np.ndarray] = []
        self.queried: list[list[str]] = []

    def blinded_counts(self, node_ids):
        share = super().blinded_counts(node_ids)
        self.queried.append(list(node_ids))
        self.emitted.append(share.copy())
        return share


def _node_box(tree, node_id: str) -> Box:
    """The box of ``node_id`` in a released tree: walk its path from the root."""
    flat = tree.flat()
    row = 0
    for rank in node_id.split(".")[1:]:
        row = flat.child_index[flat.child_offsets[row] + int(rank)]
    return Box.from_arrays(flat.lows[row], flat.highs[row])


class TestNoRawCountExposure:
    def test_full_fit_never_leaks_a_raw_shard_count(self, clustered_2d):
        # Run a whole federated fit through instrumented collectors, then
        # recompute every raw per-shard count the protocol asked about from
        # the released geometry and assert no wire-visible share ever
        # equalled one.
        shards = shard_dataset(clustered_2d, 3)
        taps = [
            _WireTap(i, 3, shard, blinding_seed=21) for i, shard in enumerate(shards)
        ]
        driver = FederatedPrivTree(taps)
        tree = driver.fit_histogram(1.0, rng=0)

        central = _privtree_histogram(clustered_2d, epsilon=1.0, rng=0)
        assert tree_to_dict(tree) == tree_to_dict(central)

        for tap, shard in zip(taps, shards):
            assert tap.emitted, "the protocol must have run rounds"
            # Each share is this shard's exact count plus its masks, so
            # every shard's count is held exact, not only the aggregate.
            blinder = PairwiseBlinder(tap.shard_id, 3, 21)
            for node_ids, share in zip(tap.queried, tap.emitted):
                raw = np.array(
                    [
                        _node_box(tree, node_id).count_points(shard.points)
                        for node_id in node_ids
                    ],
                    dtype=MASK_DTYPE,
                )
                assert share.dtype == MASK_DTYPE
                assert not np.any(share == raw)
                np.testing.assert_array_equal(share, blinder.blind(raw))
