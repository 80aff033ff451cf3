"""Performance micro-benchmarks of the library's hot paths.

Not a paper artifact — these guard the implementation itself: PrivTree
construction throughput, range-count traversal latency, PST construction,
and the DAWA partition DP.  pytest-benchmark runs them repeatedly (unlike
the figure benches, which execute once), so regressions show up in the
timing table.
"""

import numpy as np

from repro.baselines import private_partition
from repro.baselines.dawa import _dawa_histogram
from repro.baselines.ngram import count_grams, count_grams_reference
from repro.datasets import gowallalike, msnbclike
from repro.domains import Box
from repro.experiments.perf import (
    reference_privtree_nodes,
    reference_range_count,
    reference_workload_answers,
)
from repro.sequence import count_substrings, private_pst
from repro.spatial import generate_workload
from repro.spatial.quadtree import _privtree_histogram


def bench_perf_privtree_build_20k(benchmark):
    data = gowallalike(20_000, rng=0)
    benchmark(lambda: _privtree_histogram(data, epsilon=1.0, rng=0))


def bench_perf_privtree_build_200k(benchmark):
    data = gowallalike(200_000, rng=0)
    benchmark(lambda: _privtree_histogram(data, epsilon=1.0, rng=0))


def bench_perf_privtree_build_200k_reference(benchmark):
    # The frozen pre-optimization build path; the 200k case above must come
    # in at least 2x faster (tracked numerically by `repro bench`).
    data = gowallalike(200_000, rng=0)
    benchmark(lambda: reference_privtree_nodes(data, epsilon=1.0, rng=0))


def bench_perf_range_count(benchmark):
    # The frozen pointer traversal, one query at a time, over the nodes of
    # the reference build (the same tree as the fit's).
    data = gowallalike(20_000, rng=0)
    root = reference_privtree_nodes(data, epsilon=1.0, rng=0)
    queries = generate_workload(data.domain, "medium", 50, rng=1)

    def run() -> float:
        return sum(reference_range_count(root, q) for q in queries)

    benchmark(run)


def bench_perf_range_count_many_1k(benchmark):
    data = gowallalike(200_000, rng=0)
    flat = _privtree_histogram(data, epsilon=1.0, rng=0).flat()
    queries = generate_workload(data.domain, "medium", 1_000, rng=1)
    benchmark(lambda: flat.range_count_many(queries))


def bench_perf_range_count_1k_reference(benchmark):
    # The per-query recursive traversal over the same 1k-query workload; the
    # batched case above must come in at least 10x faster.
    data = gowallalike(200_000, rng=0)
    root = reference_privtree_nodes(data, epsilon=1.0, rng=0)
    queries = generate_workload(data.domain, "medium", 1_000, rng=1)
    benchmark(lambda: reference_workload_answers(root, queries))


def bench_perf_workload_generation_10k(benchmark):
    data = gowallalike(1_000, rng=0)
    benchmark(lambda: generate_workload(data.domain, "medium", 10_000, rng=1))


def bench_perf_private_pst_build(benchmark):
    data = msnbclike(10_000, rng=0)
    benchmark(lambda: private_pst(data, epsilon=1.0, l_top=20, rng=0))


def bench_perf_pst_sampling(benchmark):
    # The frozen scalar reference path; the batched case below must come in
    # at least 5x faster (tracked numerically by `repro bench`).
    data = msnbclike(10_000, rng=0)
    pst = private_pst(data, epsilon=1.0, l_top=20, rng=0)
    benchmark(lambda: pst.sample_dataset(200, rng=1, max_length=20))


def bench_perf_pst_sampling_batched_5k(benchmark):
    data = msnbclike(10_000, rng=0)
    flat = private_pst(data, epsilon=1.0, l_top=20, rng=0).flat()
    benchmark(lambda: flat.sample_dataset(5_000, rng=1, max_length=20))


def bench_perf_gram_counting_50k(benchmark):
    store = msnbclike(50_000, rng=0).truncate(20)
    benchmark(lambda: count_grams(store, n_max=5))


def bench_perf_gram_counting_50k_reference(benchmark):
    # The frozen dict triple loop; the vectorized case above must come in
    # at least 5x faster (tracked numerically by `repro bench`).
    store = msnbclike(50_000, rng=0).truncate(20)
    benchmark(lambda: count_grams_reference(store, n_max=5))


def bench_perf_substring_counting_50k(benchmark):
    data = msnbclike(50_000, rng=0)
    benchmark(lambda: count_substrings(data, max_length=8))


def bench_perf_topk_scoring(benchmark):
    data = msnbclike(10_000, rng=0)
    flat = private_pst(data, epsilon=1.0, l_top=20, rng=0).flat()
    benchmark(lambda: flat.top_k_strings(100, max_length=8))


def bench_perf_dawa_partition(benchmark):
    cells = np.random.default_rng(0).poisson(2.0, size=16_384).astype(float)
    benchmark(lambda: private_partition(cells, epsilon=0.25, rng=0))


def bench_perf_dawa_full(benchmark):
    data = gowallalike(20_000, rng=0)
    benchmark(lambda: _dawa_histogram(data, epsilon=1.0, rng=0))


def bench_perf_exact_count(benchmark):
    data = gowallalike(50_000, rng=0)
    query = Box((0.2, 0.2), (0.7, 0.7))
    benchmark(lambda: data.count_in(query))
