"""End-to-end tests for the PrivTree / SimpleTree spatial pipelines."""

import numpy as np
import pytest

from repro import from_spec
from repro.domains import Box
from repro.experiments.perf import reference_nodes_from_dict
from repro.federated import federated_privtree_histogram, shard_dataset
from repro.mechanisms import PrivacyAccountant
from repro.spatial import (
    average_relative_error,
    generate_workload,
    privtree_decomposition,
)
from repro.spatial.quadtree import _privtree_histogram, _simpletree_flat
from repro.spatial.serialize import tree_to_dict


class TestPrivTreeHistogram:
    def test_total_count_near_n(self, uniform_2d):
        syn = _privtree_histogram(uniform_2d, epsilon=1.0, rng=0)
        assert syn.total_count == pytest.approx(uniform_2d.n, rel=0.10)

    def test_intermediate_counts_are_leaf_sums(self, uniform_2d):
        syn = _privtree_histogram(uniform_2d, epsilon=1.0, rng=0)
        for node in reference_nodes_from_dict(tree_to_dict(syn)).iter_nodes():
            if not node.is_leaf:
                assert node.count == pytest.approx(sum(c.count for c in node.children))

    def test_accuracy_on_large_queries(self, uniform_2d):
        syn = _privtree_histogram(uniform_2d, epsilon=1.0, rng=1)
        queries = generate_workload(uniform_2d.domain, "large", 50, rng=2)
        err = average_relative_error(syn.range_count, uniform_2d, queries)
        assert err < 0.15

    def test_adapts_to_skew(self, clustered_2d):
        # Leaves covering the cluster must be smaller than background leaves.
        syn = _privtree_histogram(clustered_2d, epsilon=1.0, rng=0)
        vols = {}
        for box in syn.leaf_boxes():
            center_dist = max(abs(box.center[0] - 0.25), abs(box.center[1] - 0.25))
            region = "cluster" if center_dist < 0.05 else "background"
            vols.setdefault(region, []).append(box.volume)
        assert np.median(vols["cluster"]) < np.median(vols["background"])

    def test_error_decreases_with_epsilon(self, clustered_2d):
        queries = generate_workload(clustered_2d.domain, "medium", 60, rng=3)
        errs = {}
        for eps in (0.05, 1.6):
            runs = [
                average_relative_error(
                    _privtree_histogram(clustered_2d, eps, rng=s).range_count,
                    clustered_2d,
                    queries,
                )
                for s in range(5)
            ]
            errs[eps] = np.mean(runs)
        assert errs[1.6] < errs[0.05]

    def test_deterministic_given_seed(self, uniform_2d):
        a = _privtree_histogram(uniform_2d, epsilon=0.5, rng=9)
        b = _privtree_histogram(uniform_2d, epsilon=0.5, rng=9)
        assert a.size == b.size
        assert a.total_count == pytest.approx(b.total_count)

    def test_budget_fraction_respected(self, uniform_2d):
        # More budget on counts -> less noisy total count (weak sanity check:
        # just confirm both settings produce a valid tree).
        lo = _privtree_histogram(uniform_2d, epsilon=1.0, tree_fraction=0.2, rng=0)
        hi = _privtree_histogram(uniform_2d, epsilon=1.0, tree_fraction=0.8, rng=0)
        assert lo.size >= 1 and hi.size >= 1


class TestValidationBeforeSpend:
    """A call rejected for its parameters must leave the ledger untouched."""

    @pytest.mark.parametrize(
        "fit",
        [
            lambda ds, acct: _privtree_histogram(
                ds, 1.0, dims_per_split=5, accountant=acct
            ),
            lambda ds, acct: _privtree_histogram(
                ds, 1.0, tree_fraction=1.0, accountant=acct
            ),
            lambda ds, acct: _privtree_histogram(
                ds, 1.0, count_mechanism="gaussian", accountant=acct
            ),
            lambda ds, acct: _simpletree_flat(
                ds, 1.0, height=4, theta=0.0, dims_per_split=5, accountant=acct
            ),
            lambda ds, acct: _simpletree_flat(
                ds, 1.0, height=0, theta=0.0, accountant=acct
            ),
            # A fractional height grows whole levels but would scale the
            # noise by the fraction: 2.5 grew 3 levels at Lap(2.5/ε), a
            # 1.2ε loss recorded as ε.
            lambda ds, acct: from_spec("simpletree", epsilon=1.0, height=2.5).fit(
                ds, accountant=acct
            ),
            # 2.5 split 2 levels at 0.3ε/1.5 each: 1.1ε recorded as 1.0.
            lambda ds, acct: from_spec("kdtree", epsilon=1.0, height=2.5).fit(
                ds, accountant=acct
            ),
            lambda ds, acct: federated_privtree_histogram(
                shard_dataset(ds, 2), 1.0, tuples_per_individual=0, accountant=acct
            ),
        ],
        ids=[
            "privtree-dims_per_split",
            "privtree-tree_fraction",
            "privtree-count_mechanism",
            "simpletree-dims_per_split",
            "simpletree-height",
            "simpletree-fractional_height",
            "kdtree-fractional_height",
            "federated-tuples_per_individual",
        ],
    )
    def test_rejected_call_spends_nothing(self, uniform_2d, fit):
        acct = PrivacyAccountant(1.0)
        with pytest.raises(ValueError):
            fit(uniform_2d, acct)
        assert acct.ledger == []


class TestPrivTreeDecomposition:
    def test_structure_only_no_counts(self, uniform_2d):
        root = privtree_decomposition(uniform_2d, epsilon=1.0, rng=0)
        levels = list(root.levels())
        assert len(levels) > 1
        assert not any(hasattr(level, "counts") for level in levels)
        # The nodes that did not split tile the domain.
        volume = 0.0
        for level in levels:
            leaf = np.ones(level.size, dtype=bool)
            if level.split_index is not None:
                leaf[level.split_index] = False
            volume += np.prod(level.highs[leaf] - level.lows[leaf], axis=1).sum()
        assert volume == pytest.approx(uniform_2d.domain.volume)

    def test_round_robin_splits(self, uniform_2d):
        root = privtree_decomposition(uniform_2d, epsilon=1.0, dims_per_split=1, rng=0)
        levels = list(root.levels())
        assert len(levels) > 1
        for level in levels[:-1]:
            # Each split makes 2 children.
            assert level.next.size == 2 * level.split_index.size


class TestSimpleTreeHistogram:
    def test_height_respected(self, uniform_2d):
        syn = _simpletree_flat(uniform_2d, epsilon=1.0, height=3, theta=0.0, rng=0)
        assert syn.height <= 2

    def test_all_nodes_have_counts(self, uniform_2d):
        syn = _simpletree_flat(uniform_2d, epsilon=1.0, height=3, theta=0.0, rng=0)
        for count in syn.counts.tolist():
            assert isinstance(count, float)

    def test_privtree_beats_simpletree_on_skewed_data(self, clustered_2d):
        # The headline claim, in miniature: with deep structure available,
        # PrivTree outperforms the h-limited SimpleTree on skewed data.
        queries = generate_workload(clustered_2d.domain, "small", 60, rng=4)
        eps = 0.5
        priv_err = np.mean(
            [
                average_relative_error(
                    _privtree_histogram(clustered_2d, eps, rng=s).range_count,
                    clustered_2d,
                    queries,
                )
                for s in range(5)
            ]
        )
        simple_err = np.mean(
            [
                average_relative_error(
                    _simpletree_flat(
                        clustered_2d, eps, height=10, theta=0.0, rng=s
                    ).range_count,
                    clustered_2d,
                    queries,
                )
                for s in range(5)
            ]
        )
        assert priv_err < simple_err
