"""Ablation — how dataset scale moves the PrivTree-vs-baselines gap.

EXPERIMENTS.md attributes the compressed Figure 5 orderings to the reduced
cardinality of the synthetic substitutes: PrivTree's leaf counts stop at
Theta(delta * depth) points regardless of n, so its relative error falls
roughly linearly with n while grid granularities adapt more slowly.  This
bench measures PrivTree, DAWA and UG on the road analogue at three scales
(fixed ε = 0.8, medium queries) so the trend is part of the record.
"""

import numpy as np

from repro.baselines.dawa import _dawa_histogram
from repro.baselines.ug import _ug_histogram
from repro.datasets import roadlike
from repro.experiments import SweepResult, format_percent
from repro.mechanisms import ensure_rng, spawn
from repro.spatial import average_relative_error, generate_workload
from repro.spatial.quadtree import _privtree_histogram

from conftest import FULL, emit


def _scale_sweep() -> SweepResult:
    sizes = [25_000, 100_000, 400_000] if FULL else [20_000, 60_000, 180_000]
    epsilon = 0.8
    reps = 3 if FULL else 2
    gen = ensure_rng(5)
    methods = {
        "PrivTree": lambda d, r: _privtree_histogram(d, epsilon, rng=r),
        "DAWA": lambda d, r: _dawa_histogram(d, epsilon, rng=r),
        "UG": lambda d, r: _ug_histogram(d, epsilon, rng=r),
    }
    result = SweepResult(
        title=f"Ablation — error vs dataset scale (road/medium, eps={epsilon})",
        row_label="n",
        rows=[float(n) for n in sizes],
        columns=[],
    )
    columns: dict[str, list[float]] = {name: [] for name in methods}
    for n in sizes:
        dataset = roadlike(n, rng=0)
        queries = generate_workload(dataset.domain, "medium", 60, rng=1)
        for name, build in methods.items():
            errs = [
                average_relative_error(build(dataset, r).range_count, dataset, queries)
                for r in spawn(ensure_rng(gen.integers(2**32)), reps)
            ]
            columns[name].append(float(np.mean(errs)))
    for name, column in columns.items():
        result.add_column(name, column)
    # The recorded trend: every method improves with scale.
    for column in columns.values():
        assert column[-1] < column[0]
    return result


def bench_ablation_scale(benchmark):
    result = benchmark.pedantic(_scale_sweep, rounds=1, iterations=1)
    emit(result, format_percent, "ablation_scale.txt")
