"""Lemma 3.2 — the convergence guarantee E[|T|] <= 2 |T*|.

Monte-Carlo estimate of PrivTree's expected tree size against twice the
noise-free tree size, across epsilon, on a clustered spatial dataset.  The
reproduced content: the ratio stays below 2 at every budget, which is what
lets PrivTree drop the height limit.
"""

import numpy as np

from repro.datasets import gowallalike
from repro.experiments import SweepResult, format_float
from repro.spatial import privtree_decomposition
from repro.spatial.level import BoxLevel, PointLabels

from conftest import FULL, emit


def _noise_free_size(dataset, theta: float) -> int:
    """|T*|: split exactly when the true count exceeds theta."""
    level = BoxLevel.root(dataset.domain)
    labels = PointLabels(dataset.points)
    size = 0
    while level.size:
        size += level.size
        split = np.flatnonzero(
            level.splittable() & (labels.counts[level.depth] > theta)
        )
        next_level = level.split(split)
        labels.descend(level, split, next_level)
        level = next_level
    return size


def _convergence_sweep() -> SweepResult:
    dataset = gowallalike(8_000 if not FULL else 40_000, rng=0)
    theta = 40.0  # positive threshold keeps |T*| finite for the comparison
    t_star = _noise_free_size(dataset, theta)
    epsilons = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
    reps = 10 if FULL else 4
    result = SweepResult(
        title=f"Lemma 3.2 — E[|T|] vs 2|T*|  (|T*| = {t_star})",
        row_label="epsilon",
        rows=epsilons,
        columns=[],
    )
    sizes = []
    for eps in epsilons:
        runs = [
            sum(
                level.size
                for level in privtree_decomposition(
                    dataset, eps, theta=theta, rng=seed
                ).levels()
            )
            for seed in range(reps)
        ]
        sizes.append(float(np.mean(runs)))
    result.add_column("E[|T|] (MC)", sizes)
    result.add_column("2*|T*| bound", [2.0 * t_star] * len(epsilons))
    assert all(s <= 2.0 * t_star for s in sizes)
    return result


def bench_ablation_convergence(benchmark):
    result = benchmark.pedantic(_convergence_sweep, rounds=1, iterations=1)
    emit(result, format_float, "ablation_convergence.txt")
