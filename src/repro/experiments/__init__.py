"""Experiment harness regenerating every table and figure of the paper."""

from .results import (
    SweepResult,
    format_float,
    format_percent,
    format_seconds,
)
from .sequence_tasks import (
    run_frequency_error_experiment,
    run_length_distribution_experiment,
    run_ngram_height_ablation,
    run_topk_experiment,
)
from .spatial_error import (
    PAPER_EPSILONS,
    run_ag_gridsize_ablation,
    run_fanout_ablation,
    run_hierarchy_height_ablation,
    run_range_query_experiment,
    run_ug_gridsize_ablation,
    spatial_method_registry,
)
from .loadgen import LoadError, LoadResult, run_load
from .perf import (
    BENCH_CASES,
    bench_new_cases,
    bench_regression_failures,
    compare_bench_results,
    run_artifact_cold_load_bench,
    run_perf_bench,
    run_sequence_perf_bench,
    run_service_perf_bench,
    run_service_throughput_bench,
    write_bench_json,
)
from .timing import run_privtree_timing

__all__ = [
    "BENCH_CASES",
    "LoadError",
    "LoadResult",
    "PAPER_EPSILONS",
    "SweepResult",
    "run_load",
    "format_float",
    "format_percent",
    "format_seconds",
    "bench_new_cases",
    "bench_regression_failures",
    "compare_bench_results",
    "run_ag_gridsize_ablation",
    "run_fanout_ablation",
    "run_hierarchy_height_ablation",
    "run_length_distribution_experiment",
    "run_ngram_height_ablation",
    "run_frequency_error_experiment",
    "run_artifact_cold_load_bench",
    "run_perf_bench",
    "run_privtree_timing",
    "run_sequence_perf_bench",
    "run_service_perf_bench",
    "run_service_throughput_bench",
    "write_bench_json",
    "run_range_query_experiment",
    "run_topk_experiment",
    "run_ug_gridsize_ablation",
    "spatial_method_registry",
]
