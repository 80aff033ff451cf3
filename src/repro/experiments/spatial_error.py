"""Spatial range-count experiments: Figures 5, 8, 9, 10 and 11.

Each experiment sweeps the privacy budget ε (the paper's x-axis), builds
every method's synopsis ``n_reps`` times with independent noise, and
reports the mean average relative error over a fixed typed
:class:`~repro.queries.Workload` — the same workload object, answer path
(``release.answer``), and scoring (:mod:`repro.queries.metrics`) the
serving layer uses.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..api import registry
from ..datasets.registry import SPATIAL_DATASETS
from ..mechanisms.rng import RngLike, ensure_rng, spawn
from ..queries import SMOOTHING_FRACTION, Workload, workload_error
from ..spatial.dataset import SpatialDataset
from ..spatial.queries import QUERY_BANDS, generate_workload
from .results import SweepResult

__all__ = [
    "PAPER_EPSILONS",
    "method_builder",
    "spatial_method_registry",
    "run_range_query_experiment",
    "run_fanout_ablation",
    "run_ug_gridsize_ablation",
    "run_ag_gridsize_ablation",
    "run_hierarchy_height_ablation",
]

#: The ε values of every evaluation plot in the paper.
PAPER_EPSILONS = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]

#: A builder takes (dataset, epsilon, rng) and returns a release or a
#: :class:`~repro.domains.RangeCounter`.
SynopsisBuilder = Callable[[SpatialDataset, float, np.random.Generator], object]


def method_builder(name: str, **params) -> SynopsisBuilder:
    """A sweep builder that resolves ``name`` from :mod:`repro.api.registry`."""

    def build(data: SpatialDataset, eps: float, rng: np.random.Generator):
        return registry.from_spec(name, epsilon=eps, **params).fit(data, rng=rng)

    return build


def spatial_method_registry(ndim: int) -> dict[str, SynopsisBuilder]:
    """The Figure 5 method set, restricted to what applies at ``ndim``.

    AG is 2-d-specific; Hierarchy's heuristics produce infeasibly large
    trees on 4-d data (the paper omits both there as well).  Methods are
    resolved from :mod:`repro.api.registry` by their registered names.
    """
    methods: dict[str, SynopsisBuilder] = {
        "PrivTree": method_builder("privtree"),
        "UG": method_builder("ug"),
        "DAWA": method_builder("dawa"),
        "Privelet": method_builder("privelet"),
    }
    if ndim == 2:
        methods["AG"] = method_builder("ag")
        methods["Hierarchy"] = method_builder("hierarchy")
    return methods


def _sweep(
    title: str,
    dataset: SpatialDataset,
    methods: dict[str, SynopsisBuilder],
    band: str,
    epsilons: list[float],
    n_reps: int,
    n_queries: int,
    rng: RngLike,
) -> SweepResult:
    gen = ensure_rng(rng)
    boxes = generate_workload(dataset.domain, QUERY_BANDS[band], n_queries, gen)
    workload = Workload.ranges(boxes)
    # The exact workload answers do not depend on the method, budget, or
    # repetition: compute them once, vectorized, for the whole sweep.
    exacts = dataset.count_in_many(boxes)
    smoothing = SMOOTHING_FRACTION * dataset.n
    result = SweepResult(title=title, row_label="epsilon", rows=list(epsilons), columns=[])
    for name, builder in methods.items():
        column = []
        for eps in epsilons:
            errors = []
            for rep_rng in spawn(ensure_rng(gen.integers(2**32)), n_reps):
                synopsis = builder(dataset, eps, rep_rng)
                errors.append(workload_error(synopsis, workload, exacts, smoothing))
            column.append(float(np.mean(errors)))
        result.add_column(name, column)
    return result


def run_range_query_experiment(
    dataset_name: str,
    band: str,
    epsilons: list[float] | None = None,
    n_reps: int = 3,
    n_queries: int = 200,
    dataset_n: int | None = None,
    rng: RngLike = 0,
    methods: dict[str, SynopsisBuilder] | None = None,
) -> SweepResult:
    """One panel of Figure 5: all methods on one dataset and query band."""
    spec = SPATIAL_DATASETS[dataset_name]
    dataset = spec.make(dataset_n, rng=ensure_rng(rng))
    if methods is None:
        methods = spatial_method_registry(spec.dimensionality)
    return _sweep(
        title=f"Figure 5 — {dataset_name} / {band} queries (avg relative error)",
        dataset=dataset,
        methods=methods,
        band=band,
        epsilons=epsilons or PAPER_EPSILONS,
        n_reps=n_reps,
        n_queries=n_queries,
        rng=rng,
    )


def run_fanout_ablation(
    dataset_name: str,
    band: str,
    epsilons: list[float] | None = None,
    n_reps: int = 3,
    n_queries: int = 200,
    dataset_n: int | None = None,
    rng: RngLike = 0,
) -> SweepResult:
    """Figure 8: PrivTree with fanout 2^d, 2^(d/2), (and 2^(d/4) for 4-d)."""
    spec = SPATIAL_DATASETS[dataset_name]
    d = spec.dimensionality
    dims_options = sorted({d, max(1, d // 2), max(1, d // 4)}, reverse=True)
    methods = {
        f"beta=2^{dims}": method_builder("privtree", dims_per_split=dims)
        for dims in dims_options
    }
    return _sweep(
        title=f"Figure 8 — {dataset_name} / {band} queries, PrivTree fanout ablation",
        dataset=spec.make(dataset_n, rng=ensure_rng(rng)),
        methods=methods,
        band=band,
        epsilons=epsilons or PAPER_EPSILONS,
        n_reps=n_reps,
        n_queries=n_queries,
        rng=rng,
    )


def run_ug_gridsize_ablation(
    dataset_name: str,
    band: str,
    size_factors: tuple[float, ...] = (1 / 9, 1 / 3, 1.0, 3.0, 9.0),
    epsilons: list[float] | None = None,
    n_reps: int = 3,
    n_queries: int = 200,
    dataset_n: int | None = None,
    rng: RngLike = 0,
) -> SweepResult:
    """Figure 9: UG with its cell count scaled by r."""
    spec = SPATIAL_DATASETS[dataset_name]
    methods = {
        f"r={r:g}": method_builder("ug", size_factor=r) for r in size_factors
    }
    return _sweep(
        title=f"Figure 9 — {dataset_name} / {band} queries, UG grid-size ablation",
        dataset=spec.make(dataset_n, rng=ensure_rng(rng)),
        methods=methods,
        band=band,
        epsilons=epsilons or PAPER_EPSILONS,
        n_reps=n_reps,
        n_queries=n_queries,
        rng=rng,
    )


def run_ag_gridsize_ablation(
    dataset_name: str,
    band: str,
    size_factors: tuple[float, ...] = (1 / 9, 1 / 3, 1.0, 3.0, 9.0),
    epsilons: list[float] | None = None,
    n_reps: int = 3,
    n_queries: int = 200,
    dataset_n: int | None = None,
    rng: RngLike = 0,
) -> SweepResult:
    """Figure 10: AG with both grids' cell counts scaled by r (2-d only)."""
    spec = SPATIAL_DATASETS[dataset_name]
    if spec.dimensionality != 2:
        raise ValueError("AG applies to two-dimensional datasets only")
    methods = {
        f"r={r:g}": method_builder("ag", size_factor=r) for r in size_factors
    }
    return _sweep(
        title=f"Figure 10 — {dataset_name} / {band} queries, AG grid-size ablation",
        dataset=spec.make(dataset_n, rng=ensure_rng(rng)),
        methods=methods,
        band=band,
        epsilons=epsilons or PAPER_EPSILONS,
        n_reps=n_reps,
        n_queries=n_queries,
        rng=rng,
    )


def run_hierarchy_height_ablation(
    dataset_name: str,
    band: str,
    heights: tuple[int, ...] = (3, 4, 5, 6, 7, 8),
    epsilons: list[float] | None = None,
    n_reps: int = 3,
    n_queries: int = 200,
    dataset_n: int | None = None,
    rng: RngLike = 0,
) -> SweepResult:
    """Figure 11: Hierarchy at heights 3..8, fixed 128x128 leaf granularity."""
    spec = SPATIAL_DATASETS[dataset_name]
    if spec.dimensionality != 2:
        raise ValueError("the Hierarchy ablation runs on two-dimensional data")
    methods = {
        f"h={h}": method_builder("hierarchy", height=h, leaf_cells_exponent=7)
        for h in heights
    }
    return _sweep(
        title=f"Figure 11 — {dataset_name} / {band} queries, Hierarchy height ablation",
        dataset=spec.make(dataset_n, rng=ensure_rng(rng)),
        methods=methods,
        band=band,
        epsilons=epsilons or PAPER_EPSILONS,
        n_reps=n_reps,
        n_queries=n_queries,
        rng=rng,
    )
