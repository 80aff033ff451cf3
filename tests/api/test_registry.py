"""Tests for the method registry: resolution, construction, validation."""

import dataclasses

import numpy as np
import pytest

from repro.api import Estimator, Release, from_spec, registry
from repro.baselines.ag import _ag_histogram
from repro.baselines.dawa import _dawa_histogram
from repro.baselines.hierarchy import _hierarchy_histogram
from repro.baselines.kdtree import _kdtree_histogram
from repro.baselines.privelet import _privelet_histogram
from repro.baselines.ug import _ug_histogram
from repro.domains import Box
from repro.spatial.quadtree import _privtree_histogram, _simpletree_flat

from .conftest import FAST_PARAMS

ADVERTISED = [
    "privtree",
    "privtree_federated",
    "simpletree",
    "ug",
    "ag",
    "hierarchy",
    "dawa",
    "privelet",
    "kdtree",
    "ngram",
    "pst",
]


class TestNames:
    def test_every_advertised_name_registered(self):
        assert set(ADVERTISED) <= set(registry.names())

    def test_fast_params_cover_registry(self):
        # Every registered method must have a fast test configuration, so
        # the accounting/round-trip suites stay exhaustive as methods land.
        assert set(registry.names()) == set(FAST_PARAMS)

    def test_names_sorted(self):
        assert registry.names() == sorted(registry.names())

    @pytest.mark.parametrize("name", ADVERTISED)
    def test_get_returns_estimator(self, name):
        est = registry.get(name)
        assert isinstance(est, Estimator)
        assert est.name == name
        assert est.kind in ("spatial", "sequence")

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="privtree"):
            registry.get("quadtree-deluxe")


class TestFromSpec:
    def test_configures_fields(self):
        est = from_spec("privtree", epsilon=0.25, theta=2.0)
        assert est.epsilon == 0.25
        assert est.theta == 2.0

    def test_rejects_unknown_params(self):
        with pytest.raises(TypeError, match="unknown parameter"):
            from_spec("privtree", epsilon=1.0, bogus_knob=3)

    def test_rejection_names_valid_params(self):
        with pytest.raises(TypeError, match="tree_fraction"):
            from_spec("privtree", not_a_param=1)

    @pytest.mark.parametrize("name", ADVERTISED)
    def test_all_methods_constructible_with_defaults(self, name):
        est = from_spec(name)
        assert est.epsilon == 1.0

    def test_estimators_are_frozen(self):
        est = from_spec("ug", epsilon=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            est.epsilon = 2.0


class TestSpecs:
    def test_specs_describe_every_method(self):
        described = {spec["name"] for spec in registry.specs()}
        assert described == set(registry.names())

    def test_specs_expose_epsilon_default(self):
        for spec in registry.specs():
            assert spec["params"].get("epsilon") == 1.0


class TestFitProducesRelease:
    @pytest.mark.parametrize("name", ADVERTISED)
    def test_fit_returns_release(self, name, uniform_2d, sequence_data):
        kind, params = FAST_PARAMS[name]
        dataset = uniform_2d if kind == "spatial" else sequence_data
        release = from_spec(name, epsilon=1.0, **params).fit(dataset, rng=0)
        assert isinstance(release, Release)
        assert release.method == name
        assert release.epsilon_spent == 1.0
        assert release.size >= 1


QUERY = Box((0.15, 0.2), (0.7, 0.85))

#: The implementation behind each 1.x free function, its registry name, its
#: kwargs, and the matching estimator params (the README's migration table).
IMPLEMENTATIONS = [
    (_privtree_histogram, "privtree", {}, {}),
    (_simpletree_flat, "simpletree", {"height": 5, "theta": 0.0}, {"height": 5}),
    (_ug_histogram, "ug", {}, {}),
    (_ag_histogram, "ag", {}, {}),
    (_hierarchy_histogram, "hierarchy", {}, {}),
    (_dawa_histogram, "dawa", {"cells_per_dim": 32}, {"cells_per_dim": 32}),
    (_privelet_histogram, "privelet", {"cells_per_dim": 32}, {"cells_per_dim": 32}),
    (_kdtree_histogram, "kdtree", {"height": 4}, {"height": 4}),
]


class TestImplementationsMatchRegistry:
    @pytest.mark.parametrize(
        "impl,name,impl_kwargs,params",
        IMPLEMENTATIONS,
        ids=[name for _, name, _, _ in IMPLEMENTATIONS],
    )
    def test_matches_from_spec(self, impl, name, impl_kwargs, params, uniform_2d):
        old = impl(uniform_2d, 1.0, rng=np.random.default_rng(11), **impl_kwargs)
        new = from_spec(name, epsilon=1.0, **params).fit(
            uniform_2d, rng=np.random.default_rng(11)
        )
        # The release surface answers via the flat array engine, whose
        # summation order differs from the recursive traversal by float
        # round-off only — so approx at a far-sub-noise tolerance.
        assert old.range_count(QUERY) == pytest.approx(new.query(QUERY), rel=1e-12)

    @pytest.mark.parametrize("module", ["repro", "repro.spatial", "repro.baselines"])
    def test_free_functions_are_gone(self, module):
        """The 1.x ``*_histogram`` shims were removed in 2.0.0."""
        import importlib

        package = importlib.import_module(module)
        for _, name, _, _ in IMPLEMENTATIONS:
            assert not hasattr(package, f"{name}_histogram")
