"""Tests for the alternative (geometric) count mechanism."""

import numpy as np
import pytest

from repro.spatial.quadtree import _privtree_histogram


class TestGeometricCounts:
    def test_leaf_counts_are_integers(self, uniform_2d):
        syn = _privtree_histogram(
            uniform_2d, epsilon=1.0, count_mechanism="geometric", rng=0
        )
        leaves = [n for n in syn.root.iter_nodes() if n.is_leaf]
        for leaf in leaves:
            assert leaf.count == int(leaf.count)

    def test_total_count_near_n(self, uniform_2d):
        syn = _privtree_histogram(
            uniform_2d, epsilon=1.0, count_mechanism="geometric", rng=0
        )
        assert syn.total_count == pytest.approx(uniform_2d.n, rel=0.10)

    def test_comparable_accuracy_to_laplace(self, clustered_2d):
        from repro.spatial import average_relative_error, generate_workload

        queries = generate_workload(clustered_2d.domain, "medium", 40, rng=1)
        errs = {}
        for mech in ("laplace", "geometric"):
            errs[mech] = np.mean(
                [
                    average_relative_error(
                        _privtree_histogram(
                            clustered_2d, 0.8, count_mechanism=mech, rng=s
                        ).range_count,
                        clustered_2d,
                        queries,
                    )
                    for s in range(4)
                ]
            )
        # The two mechanisms have near-identical utility at the same eps.
        assert errs["geometric"] < 2.0 * errs["laplace"]

    def test_user_level_scaling_applies(self, uniform_2d):
        def spread(x: int) -> float:
            totals = [
                _privtree_histogram(
                    uniform_2d,
                    epsilon=0.5,
                    count_mechanism="geometric",
                    tuples_per_individual=x,
                    rng=s,
                ).total_count
                for s in range(20)
            ]
            return float(np.std(totals))

        assert spread(10) > 2.5 * spread(1)

    def test_unknown_mechanism_rejected(self, uniform_2d):
        with pytest.raises(ValueError):
            _privtree_histogram(uniform_2d, epsilon=1.0, count_mechanism="gaussian")
