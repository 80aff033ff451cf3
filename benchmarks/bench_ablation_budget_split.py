"""Ablation — PrivTree's §3.4 parameter choices.

Two design knobs the paper fixes without a figure:

* the ε split between tree structure and leaf counts (the paper uses ½/½);
* the split threshold θ (the paper argues θ = 0 suffices thanks to the
  negative bias).

This bench sweeps both on the road analogue so the defaults can be checked
against alternatives.
"""

from repro.datasets import roadlike
from repro.experiments import SweepResult, format_percent
from repro.mechanisms import ensure_rng, spawn
from repro.spatial import average_relative_error, generate_workload
from repro.spatial.quadtree import _privtree_histogram

from conftest import FULL, emit


def _sweep(build_variants: dict, title: str) -> SweepResult:
    import numpy as np

    dataset = roadlike(60_000 if not FULL else 150_000, rng=0)
    queries = generate_workload(dataset.domain, "medium", 80, rng=1)
    epsilons = [0.1, 0.4, 1.6]
    reps = 3 if FULL else 2
    gen = ensure_rng(2)
    result = SweepResult(title=title, row_label="epsilon", rows=epsilons, columns=[])
    for name, build in build_variants.items():
        column = []
        for eps in epsilons:
            errs = [
                average_relative_error(
                    build(dataset, eps, r).range_count, dataset, queries
                )
                for r in spawn(ensure_rng(gen.integers(2**32)), reps)
            ]
            column.append(float(np.mean(errs)))
        result.add_column(name, column)
    return result


def bench_ablation_budget_split(benchmark):
    variants = {
        f"tree={frac:g}": (
            lambda data, eps, rng, frac=frac: _privtree_histogram(
                data, eps, tree_fraction=frac, rng=rng
            )
        )
        for frac in (0.2, 0.35, 0.5, 0.65, 0.8)
    }
    result = benchmark.pedantic(
        lambda: _sweep(
            variants, "Ablation — budget fraction spent on tree structure (road/medium)"
        ),
        rounds=1,
        iterations=1,
    )
    emit(result, format_percent, "ablation_budget_split.txt")


def bench_ablation_theta(benchmark):
    variants = {
        f"theta={theta:g}": (
            lambda data, eps, rng, theta=theta: _privtree_histogram(
                data, eps, theta=theta, rng=rng
            )
        )
        for theta in (0.0, 10.0, 50.0, 200.0)
    }
    result = benchmark.pedantic(
        lambda: _sweep(variants, "Ablation — split threshold theta (road/medium)"),
        rounds=1,
        iterations=1,
    )
    emit(result, format_percent, "ablation_theta.txt")
