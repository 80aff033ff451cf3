"""Sequence-data experiments: Figures 6, 7 and 12.

* Figure 6 — top-k frequent-string precision of Truncate, PrivTree,
  N-gram and EM at k ∈ {50, 100, 200}.
* Figure 7 — total variation distance between the input's sequence-length
  distribution and that of synthetic data generated by each model.
* Figure 12 — the N-gram baseline's ``n_max`` (tree height) ablation.
* String-frequency workload error — the §6.2 estimation task expressed as
  a typed :class:`~repro.queries.Workload` of
  :class:`~repro.queries.StringFrequency` queries, answered through
  ``release.answer`` and scored by the same unified
  :mod:`repro.queries.metrics` as the spatial sweeps.
"""

from __future__ import annotations

import numpy as np

from ..api import registry
from ..baselines.em_topk import em_top_k
from ..baselines.ngram import count_grams
from ..datasets.registry import SEQUENCE_DATASETS
from ..mechanisms.rng import RngLike, ensure_rng, spawn
from ..queries import SMOOTHING_FRACTION, StringFrequency, Workload, workload_error
from ..sequence.metrics import (
    length_distribution,
    top_k_precision,
    total_variation_distance,
)
from ..sequence.tasks import (
    count_substrings,
    exact_top_k,
    rank_substring_counts,
    top_k_substrings,
)
from .results import SweepResult
from .spatial_error import PAPER_EPSILONS

__all__ = [
    "run_frequency_error_experiment",
    "run_topk_experiment",
    "run_length_distribution_experiment",
    "run_ngram_height_ablation",
]

#: Longest candidate string considered in top-k mining (ground truth and
#: all methods use the same cap, so comparisons are apples-to-apples).
TOPK_MAX_LENGTH = 8


def run_topk_experiment(
    dataset_name: str,
    k: int,
    epsilons: list[float] | None = None,
    n_reps: int = 3,
    dataset_n: int | None = None,
    rng: RngLike = 0,
) -> SweepResult:
    """One panel of Figure 6: top-k precision vs ε."""
    spec = SEQUENCE_DATASETS[dataset_name]
    gen = ensure_rng(rng)
    dataset = spec.make(dataset_n, rng=gen)
    l_top = spec.l_top
    epsilons = epsilons or PAPER_EPSILONS

    exact = set(exact_top_k(dataset, k, max_length=TOPK_MAX_LENGTH))
    # The full table is needed below (EM scores candidates from it); the
    # Truncate baseline's answer is its canonical §6.2 ranking.
    truncated_counts = count_substrings(dataset.clip(l_top), TOPK_MAX_LENGTH)
    truncate_answer = {
        codes for codes, _ in rank_substring_counts(truncated_counts, k)
    }
    truncate_precision = top_k_precision(exact, truncate_answer)
    grams = count_grams(dataset.truncate(l_top), n_max=5)

    result = SweepResult(
        title=f"Figure 6 — {dataset_name} / top-{k} precision",
        row_label="epsilon",
        rows=list(epsilons),
        columns=[],
    )
    result.add_column("Truncate", [truncate_precision] * len(epsilons))

    def sweep(run_one) -> list[float]:
        column = []
        for eps in epsilons:
            scores = []
            for rep_rng in spawn(ensure_rng(gen.integers(2**32)), n_reps):
                answer = run_one(eps, rep_rng)
                scores.append(top_k_precision(exact, answer))
            column.append(float(np.mean(scores)))
        return column

    result.add_column(
        "PrivTree",
        sweep(
            lambda eps, r: {
                codes
                for codes, _ in registry.from_spec("pst", epsilon=eps, l_top=l_top)
                .fit(dataset, rng=r)
                .top_k_strings(k, max_length=TOPK_MAX_LENGTH)
            }
        ),
    )
    result.add_column(
        "N-gram",
        sweep(
            lambda eps, r: set(
                registry.from_spec(
                    "ngram", epsilon=eps, l_top=l_top, gram_counts=grams
                )
                .fit(dataset, rng=r)
                .top_k_strings(k, max_length=TOPK_MAX_LENGTH)
            )
        ),
    )
    result.add_column(
        "EM",
        sweep(
            lambda eps, r: set(
                em_top_k(
                    dataset,
                    eps,
                    l_top,
                    k,
                    max_length=TOPK_MAX_LENGTH,
                    rng=r,
                    substring_counts=truncated_counts,
                )
            )
        ),
    )
    return result


def run_length_distribution_experiment(
    dataset_name: str,
    epsilons: list[float] | None = None,
    n_reps: int = 3,
    n_synthetic: int | None = None,
    dataset_n: int | None = None,
    rng: RngLike = 0,
) -> SweepResult:
    """One panel of Figure 7: sequence-length TVD vs ε."""
    spec = SEQUENCE_DATASETS[dataset_name]
    gen = ensure_rng(rng)
    dataset = spec.make(dataset_n, rng=gen)
    l_top = spec.l_top
    epsilons = epsilons or PAPER_EPSILONS
    if n_synthetic is None:
        n_synthetic = min(dataset.n, 5_000)

    # Support of the length histogram: the *original* data's range, so the
    # truncation of the tail is visible (this is what Figure 7's Truncate
    # baseline measures).
    support = int(max(dataset.lengths().max(), l_top + 1))
    reference = length_distribution(dataset.lengths(), max_length=support)
    truncate_tvd = total_variation_distance(
        reference, length_distribution(dataset.clip(l_top).lengths(), max_length=support)
    )

    result = SweepResult(
        title=f"Figure 7 — {dataset_name} / sequence-length TVD",
        row_label="epsilon",
        rows=list(epsilons),
        columns=[],
    )
    result.add_column("Truncate", [truncate_tvd] * len(epsilons))

    def sweep(build_model) -> list[float]:
        column = []
        for eps in epsilons:
            tvds = []
            for rep_rng in spawn(ensure_rng(gen.integers(2**32)), n_reps):
                model = build_model(eps, rep_rng)
                synthetic = model.sample_dataset(
                    n_synthetic, rng=rep_rng, max_length=support
                )
                lengths = [len(s) for s in synthetic]
                tvds.append(
                    total_variation_distance(
                        reference, length_distribution(lengths, max_length=support)
                    )
                )
            column.append(float(np.mean(tvds)))
        return column

    grams = count_grams(dataset.truncate(l_top), n_max=5)
    result.add_column(
        "PrivTree",
        sweep(
            lambda eps, r: registry.from_spec("pst", epsilon=eps, l_top=l_top).fit(
                dataset, rng=r
            )
        ),
    )
    result.add_column(
        "N-gram",
        sweep(
            lambda eps, r: registry.from_spec(
                "ngram", epsilon=eps, l_top=l_top, gram_counts=grams
            ).fit(dataset, rng=r)
        ),
    )
    return result


def run_frequency_error_experiment(
    dataset_name: str,
    n_queries: int = 200,
    max_length: int = TOPK_MAX_LENGTH,
    epsilons: list[float] | None = None,
    n_reps: int = 3,
    dataset_n: int | None = None,
    rng: RngLike = 0,
) -> SweepResult:
    """String-frequency workload error vs ε (the §6.2 estimation task).

    The workload is the dataset's ``n_queries`` most frequent substrings
    (up to ``max_length`` symbols) as typed
    :class:`~repro.queries.StringFrequency` queries; each model answers it
    through one ``release.answer`` dispatch and is scored by the smoothed
    mean relative error of :mod:`repro.queries.metrics` — the exact
    counterpart of the spatial Figure 5 sweeps.
    """
    spec = SEQUENCE_DATASETS[dataset_name]
    gen = ensure_rng(rng)
    dataset = spec.make(dataset_n, rng=gen)
    l_top = spec.l_top
    epsilons = epsilons or PAPER_EPSILONS

    ranked = top_k_substrings(dataset, n_queries, max_length)
    workload = Workload.of([StringFrequency(codes=codes) for codes, _ in ranked])
    # Exact answers come with the ranking; like the spatial sweeps they are
    # computed once and reused across methods, budgets, and repetitions.
    exacts = np.asarray([count for _, count in ranked], dtype=float)
    smoothing = SMOOTHING_FRACTION * dataset.n

    result = SweepResult(
        title=(
            f"String-frequency workload — {dataset_name} / top-{len(workload)} "
            f"substrings (avg relative error)"
        ),
        row_label="epsilon",
        rows=list(epsilons),
        columns=[],
    )
    grams = count_grams(dataset.truncate(l_top), n_max=5)
    builders = {
        "PrivTree": lambda eps, r: registry.from_spec(
            "pst", epsilon=eps, l_top=l_top
        ).fit(dataset, rng=r),
        "N-gram": lambda eps, r: registry.from_spec(
            "ngram", epsilon=eps, l_top=l_top, gram_counts=grams
        ).fit(dataset, rng=r),
    }
    for name, build in builders.items():
        column = []
        for eps in epsilons:
            errors = []
            for rep_rng in spawn(ensure_rng(gen.integers(2**32)), n_reps):
                release = build(eps, rep_rng)
                errors.append(workload_error(release, workload, exacts, smoothing))
            column.append(float(np.mean(errors)))
        result.add_column(name, column)
    return result


def run_ngram_height_ablation(
    dataset_name: str,
    k: int = 100,
    heights: tuple[int, ...] = (3, 4, 5, 6, 7),
    epsilons: list[float] | None = None,
    n_reps: int = 3,
    dataset_n: int | None = None,
    rng: RngLike = 0,
) -> SweepResult:
    """Figure 12: N-gram top-k precision at several ``n_max`` heights."""
    spec = SEQUENCE_DATASETS[dataset_name]
    gen = ensure_rng(rng)
    dataset = spec.make(dataset_n, rng=gen)
    l_top = spec.l_top
    epsilons = epsilons or PAPER_EPSILONS
    exact = set(exact_top_k(dataset, k, max_length=TOPK_MAX_LENGTH))
    grams = count_grams(dataset.truncate(l_top), n_max=max(heights))

    result = SweepResult(
        title=f"Figure 12 — {dataset_name} / top-{k}, N-gram height ablation",
        row_label="epsilon",
        rows=list(epsilons),
        columns=[],
    )
    for h in heights:
        column = []
        for eps in epsilons:
            scores = []
            for rep_rng in spawn(ensure_rng(gen.integers(2**32)), n_reps):
                release = registry.from_spec(
                    "ngram", epsilon=eps, l_top=l_top, n_max=h, gram_counts=grams
                ).fit(dataset, rng=rep_rng)
                answer = set(release.top_k_strings(k, max_length=TOPK_MAX_LENGTH))
                scores.append(top_k_precision(exact, answer))
            column.append(float(np.mean(scores)))
        result.add_column(f"h={h}", column)
    return result
