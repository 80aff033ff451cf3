"""End-to-end tests for the PrivTree / SimpleTree spatial pipelines."""

import numpy as np
import pytest

from repro import from_spec
from repro.domains import Box
from repro.experiments.perf import reference_nodes_from_dict
from repro.federated import (
    FederatedPrivTree,
    FitCheckpoint,
    ShardCollector,
    federated_privtree_histogram,
    shard_dataset,
)
from repro.federated import driver as federated_driver
from repro.mechanisms import PrivacyAccountant
from repro.spatial import (
    average_relative_error,
    generate_workload,
    privtree_decomposition,
)
from repro.spatial import quadtree
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

    @pytest.mark.parametrize(
        "theta", [float("nan"), float("inf"), -float("inf"), "abc", True], ids=repr
    )
    @pytest.mark.parametrize("method", ["privtree", "privtree_federated", "simpletree"])
    def test_non_finite_theta_refused_before_growth(
        self, uniform_2d, method, theta, monkeypatch
    ):
        # A θ of -inf would split every node down to max_depth: the fit
        # must refuse it before the first level grows or ε is spent.
        def grow(*args, **kwargs):
            raise AssertionError("a level grew")

        for module, name in [
            (quadtree, "grow_frontier"),
            (quadtree, "grow_simpletree"),
            (federated_driver, "grow_frontier"),
        ]:
            monkeypatch.setattr(module, name, grow)
        acct = PrivacyAccountant(1.0)
        with pytest.raises(ValueError, match="theta must be a finite number"):
            from_spec(method, epsilon=1.0, theta=theta).fit(uniform_2d, accountant=acct)
        assert acct.ledger == []

    def test_non_finite_theta_writes_no_checkpoint(self, uniform_2d, tmp_path):
        path = tmp_path / "fit.ckpt"
        coordinator = FederatedPrivTree(
            [ShardCollector(i, 2, shard) for i, shard in enumerate(shard_dataset(uniform_2d, 2))]
        )
        with pytest.raises(ValueError, match="theta"):
            coordinator.fit_histogram(1.0, theta=float("nan"), checkpoint=FitCheckpoint(path))
        assert not path.exists()

    #: (method, parameter, value, refusal): integer parameters that are a
    #: bool, a fraction or out of range.  Before 10.1.0 a fractional or bool
    #: dims_per_split raised TypeError after the spend, max_depth=-1 spent
    #: all of ε on a root-only release, and max_depth=2.5 and
    #: tuples_per_individual=2.5 fitted.
    NON_INTEGER = [
        (method, "dims_per_split", value, "dims_per_split must be an integer")
        for method in ("privtree", "privtree_federated", "simpletree")
        for value in (1.5, True)
    ] + [
        (method, name, value, refusal)
        for method in ("privtree", "privtree_federated")
        for name, value, refusal in [
            ("max_depth", -1, "max_depth must be at least 0"),
            ("max_depth", 2.5, "max_depth must be an integer"),
            ("max_depth", True, "max_depth must be an integer"),
            ("tuples_per_individual", 2.5, "tuples_per_individual must be an integer"),
            ("tuples_per_individual", True, "tuples_per_individual must be an integer"),
            ("tuples_per_individual", 0, "tuples_per_individual must be at least 1"),
        ]
    ]

    @staticmethod
    def _forbid_growth(monkeypatch):
        def grow(*args, **kwargs):
            raise AssertionError("a level grew")

        for module, name in [
            (quadtree, "grow_frontier"),
            (quadtree, "grow_simpletree"),
            (federated_driver, "grow_frontier"),
        ]:
            monkeypatch.setattr(module, name, grow)

    @pytest.mark.parametrize(
        "method,name,value,refusal", NON_INTEGER,
        ids=[f"{m}-{n}={v!r}" for m, n, v, _ in NON_INTEGER],
    )
    def test_non_integer_refused_before_growth(
        self, uniform_2d, method, name, value, refusal, monkeypatch
    ):
        self._forbid_growth(monkeypatch)
        acct = PrivacyAccountant(1.0)
        with pytest.raises(ValueError, match=refusal):
            from_spec(method, epsilon=1.0, **{name: value}).fit(uniform_2d, accountant=acct)
        assert acct.ledger == []

    @pytest.mark.parametrize(
        "name,value",
        [("max_depth", -1), ("max_depth", 2.5), ("tuples_per_individual", 2.5)],
    )
    def test_non_integer_writes_no_checkpoint(
        self, uniform_2d, tmp_path, name, value, monkeypatch
    ):
        self._forbid_growth(monkeypatch)
        path = tmp_path / "fit.ckpt"
        acct = PrivacyAccountant(1.0)
        coordinator = FederatedPrivTree(
            [ShardCollector(i, 2, shard) for i, shard in enumerate(shard_dataset(uniform_2d, 2))]
        )
        with pytest.raises(ValueError, match=name):
            coordinator.fit_histogram(
                1.0, accountant=acct, checkpoint=FitCheckpoint(path), **{name: value}
            )
        assert not path.exists()
        assert acct.ledger == []

    @pytest.mark.parametrize("max_depth", [-1, 2.5, True])
    def test_decomposition_checks_max_depth(self, uniform_2d, max_depth, monkeypatch):
        self._forbid_growth(monkeypatch)
        with pytest.raises(ValueError, match="max_depth"):
            privtree_decomposition(uniform_2d, 1.0, max_depth=max_depth)

    def test_integer_parameters_still_fit(self, uniform_2d):
        # None and numpy integers stay valid, and max_depth=0 is the root.
        release = from_spec(
            "privtree", epsilon=1.0, max_depth=np.int64(0),
            tuples_per_individual=np.int64(2), dims_per_split=np.int64(1),
        )
        with pytest.warns(UserWarning, match="max_depth"):
            assert release.fit(uniform_2d, rng=0).size == 1
        assert from_spec("privtree", epsilon=1.0, max_depth=None).fit(uniform_2d, rng=0).size > 1


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
