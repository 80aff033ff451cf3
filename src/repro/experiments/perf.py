"""Performance micro-benchmarks of the hot paths (``repro bench``).

Measures the current array-backed engines against frozen *reference*
implementations that replicate the pre-optimization code paths — spatial:
per-child ``contains_points`` scans with copied point arrays, one scalar
Laplace draw per node, recursive per-query range counting, a release
document built as nested dicts before ``json.dumps``; sequence: the
dict/tuple triple loops over (sequence, position, length) windows, scalar
per-symbol sampling, and per-candidate recursive frequency walks.  Where
both paths consume the RNG stream identically the reference produces the
**same** artifact and the harness asserts it; where only the distribution
is preserved (batched generation) the harness checks distributional
agreement instead.

Results are returned as a plain dict (and written as ``BENCH_perf.json`` by
the CLI) so CI can archive the numbers and the perf trajectory is
machine-readable; :func:`compare_bench_results` renders the regression
table behind ``repro bench --compare``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..baselines.ngram import count_grams, count_grams_reference
from ..core.node import DecompositionTree, TreeNode
from ..core.params import PrivTreeParams
from ..datasets.sequence import msnbclike
from ..datasets.spatial import gowallalike
from ..domains.box import Box
from ..federated.driver import (
    FederatedPrivTree,
    federated_privtree_histogram,
    shard_dataset,
)
from ..mechanisms.geometric import geometric_noise
from ..mechanisms.laplace import laplace_noise
from ..mechanisms.rng import ensure_rng
from ..sequence.metrics import length_distribution, total_variation_distance
from ..sequence.private_pst import private_pst
from ..sequence.tasks import (
    count_substrings,
    count_substrings_reference,
    rank_substring_counts,
    top_k_substrings,
)
from ..spatial.dataset import SpatialDataset
from ..spatial.flat import FlatHistogram
from ..spatial.histogram_tree import HistogramTree
from ..spatial.quadtree import _privtree_flat
from ..spatial.queries import generate_workload

__all__ = [
    "BENCH_CASES",
    "FROZEN_REFERENCE_CASES",
    "HistogramNode",
    "bench_new_cases",
    "bench_regression_failures",
    "build_mixed_workload",
    "compare_bench_results",
    "reference_flat_from_nodes",
    "reference_nodes_from_dict",
    "reference_privtree_histogram",
    "reference_privtree_nodes",
    "reference_range_count",
    "reference_range_count_arrays",
    "reference_release_json",
    "reference_workload_answers",
    "run_artifact_cold_load_bench",
    "run_perf_bench",
    "run_sequence_perf_bench",
    "run_service_perf_bench",
    "run_service_throughput_bench",
    "scalar_query_loop",
    "synthetic_flat_histogram",
    "write_bench_json",
]


# ----------------------------------------------------------------------
# Frozen pre-optimization reference implementations
# ----------------------------------------------------------------------


class _ReferencePayload:
    """The historical spatial payload: copied point arrays per node."""

    __slots__ = ("box", "points", "dims_per_split", "next_dim")

    def __init__(self, box, points, dims_per_split, next_dim=0):
        self.box = box
        self.points = points
        self.dims_per_split = dims_per_split
        self.next_dim = next_dim

    def _split_dims(self):
        d = self.box.ndim
        return [(self.next_dim + j) % d for j in range(self.dims_per_split)]

    def score(self):
        return float(self.points.shape[0])

    def can_split(self):
        return self.box.can_bisect(self._split_dims())

    def split(self):
        dims = self._split_dims()
        next_dim = (self.next_dim + self.dims_per_split) % self.box.ndim
        children = []
        for child_box in self.box.bisect(dims):
            mask = child_box.contains_points(self.points)
            children.append(
                _ReferencePayload(
                    box=child_box,
                    points=self.points[mask],
                    dims_per_split=self.dims_per_split,
                    next_dim=next_dim,
                )
            )
        return children


def _reference_privtree(root_payload, params, gen, max_depth):
    """Algorithm 2 with one scalar Laplace draw per splittable node."""
    from collections import deque

    root = TreeNode(payload=root_payload, depth=0)
    frontier = deque([root])
    while frontier:
        node = frontier.popleft()
        if not node.payload.can_split():
            continue
        if max_depth is not None and node.depth >= max_depth:
            continue
        biased = max(
            params.floor(), node.payload.score() - node.depth * params.delta
        )
        if biased + laplace_noise(params.lam, rng=gen) > params.theta:
            node.children = [
                TreeNode(payload=child, depth=node.depth + 1)
                for child in node.payload.split()
            ]
            frontier.extend(node.children)
    return DecompositionTree(root=root)


def reference_privtree_nodes(
    dataset: SpatialDataset,
    epsilon: float,
    rng=None,
    *,
    dims_per_split: int | None = None,
    theta: float = 0.0,
    tree_fraction: float = 0.5,
    tuples_per_individual: int = 1,
    count_mechanism: str = "laplace",
    max_depth: int | None = 64,
) -> HistogramNode:
    """The pre-optimization §3.3+§3.4 pipeline (node-at-a-time, scalar RNG).

    Stream-compatible with :func:`repro.spatial.quadtree._privtree_histogram`
    for every knob, so both produce the identical release for a given
    seed.  It shares no code with the array levels, which makes it the
    frozen reference the bit-identity tests hold every PrivTree fit to,
    and the speedup baseline for ``repro bench``.  The max-depth guard
    stops splitting silently.  Returns the released root node.
    """
    gen = ensure_rng(rng)
    if dims_per_split is None:
        dims_per_split = dataset.ndim
    eps_tree = tree_fraction * epsilon
    eps_counts = (1.0 - tree_fraction) * epsilon
    root = _ReferencePayload(
        box=dataset.domain, points=dataset.points, dims_per_split=dims_per_split
    )
    params = PrivTreeParams.calibrate(
        eps_tree,
        fanout=2**dims_per_split,
        sensitivity=float(tuples_per_individual),
        theta=theta,
    )
    tree = _reference_privtree(root, params, gen, max_depth)
    count_scale = tuples_per_individual / eps_counts

    def noisy(score):
        if count_mechanism == "laplace":
            return score + laplace_noise(count_scale, rng=gen)
        return float(
            int(score)
            + geometric_noise(
                eps_counts, sensitivity=float(tuples_per_individual), rng=gen
            )
        )

    def release(node):
        if node.is_leaf:
            return HistogramNode(box=node.payload.box, count=noisy(node.payload.score()))
        children = [release(c) for c in node.children]
        return HistogramNode(
            box=node.payload.box,
            count=sum(c.count for c in children),
            children=children,
        )

    return release(tree.root)


def reference_privtree_histogram(
    dataset: SpatialDataset, epsilon: float, rng=None, **knobs
) -> HistogramTree:
    """:func:`reference_privtree_nodes`, compiled by :func:`reference_flat_from_nodes`."""
    root = reference_privtree_nodes(dataset, epsilon, rng, **knobs)
    return reference_flat_from_nodes(root).to_tree()


@dataclass
class HistogramNode:
    """A released node: sub-domain, noisy count, children.

    The pointer form a released tree had before :class:`FlatHistogram`
    became its only in-memory form, frozen with its compile, traversal
    and JSON decoder below as the references the tests and ``repro
    bench`` hold the array paths to.
    """

    box: Box
    count: float
    children: list["HistogramNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """Whether the node has no children."""
        return not self.children

    def iter_nodes(self) -> Iterator["HistogramNode"]:
        """All nodes of the subtree, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def reference_flat_from_nodes(root: HistogramNode) -> FlatHistogram:
    """Compile a tree of nodes into flat arrays, laid out in pre-order."""
    nodes = list(root.iter_nodes())  # pre-order
    m = len(nodes)
    d = root.box.ndim
    lows = np.empty((m, d))
    highs = np.empty((m, d))
    counts = np.empty(m)
    parents = np.full(m, -1, dtype=np.intp)
    n_children = np.empty(m, dtype=np.intp)
    index_of = {id(node): i for i, node in enumerate(nodes)}
    for i, node in enumerate(nodes):
        lows[i] = node.box.low
        highs[i] = node.box.high
        counts[i] = node.count
        n_children[i] = len(node.children)
        for child in node.children:
            parents[index_of[id(child)]] = i
    child_offsets = np.concatenate(([0], np.cumsum(n_children)))
    child_index = np.empty(int(child_offsets[-1]), dtype=np.intp)
    cursor = child_offsets[:-1].copy()
    for i in range(1, m):
        p = parents[i]
        child_index[cursor[p]] = i
        cursor[p] += 1
    return FlatHistogram(
        lows=lows,
        highs=highs,
        counts=counts,
        parents=parents,
        child_offsets=child_offsets,
        child_index=child_index,
    )


def reference_range_count(root: HistogramNode, query: Box) -> float:
    """The §2.2 traversal, one node at a time — the pointer-chasing reference."""
    answer = 0.0
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.box.intersects(query):
            continue
        if query.contains_box(node.box):
            answer += node.count
        elif node.is_leaf:
            answer += node.count * node.box.overlap_fraction(query)
        else:
            stack.extend(node.children)
    return answer


def reference_workload_answers(root: HistogramNode, queries) -> np.ndarray:
    """Per-query recursive traversal — the pre-optimization query path."""
    return np.array([reference_range_count(root, q) for q in queries])


def _load_box(data: dict[str, Any]) -> Box:
    try:
        low = tuple(float(x) for x in data["low"])
        high = tuple(float(x) for x in data["high"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"node must carry numeric 'low'/'high' coordinate lists, "
            f"got low={data.get('low')!r} high={data.get('high')!r}"
        ) from None
    if len(low) != len(high) or not low:
        raise ValueError(
            f"box extents disagree: low has {len(low)} dims, high has {len(high)}"
        )
    for lo, hi in zip(low, high):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"non-finite box coordinate in [{lo!r}, {hi!r})")
        if not lo < hi:
            raise ValueError(f"invalid box extent [{lo!r}, {hi!r}): low must be < high")
    return Box(low, high)


def _node_from_dict(data: dict[str, Any], parent_box: Box | None = None) -> HistogramNode:
    box = _load_box(data)
    if parent_box is not None:
        if box.ndim != parent_box.ndim:
            raise ValueError(
                f"child box has {box.ndim} dims but its parent has {parent_box.ndim}"
            )
        if not parent_box.contains_box(box):
            raise ValueError(
                f"child box [{box.low}, {box.high}) escapes its parent "
                f"[{parent_box.low}, {parent_box.high})"
            )
    try:
        count = float(data["count"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"node must carry a numeric 'count', got {data.get('count')!r}"
        ) from None
    if not math.isfinite(count):
        raise ValueError(f"non-finite node count {count!r}")
    children = [_node_from_dict(c, box) for c in data.get("children", [])]
    return HistogramNode(box=box, count=count, children=children)


def reference_nodes_from_dict(data: dict[str, Any]) -> HistogramNode:
    """The ``repro.histogram_tree`` decoder, recursive and one node at a time.

    Returns the root node.  Raises :class:`ValueError` on the documents
    :func:`repro.spatial.serialize.tree_from_dict` rejects, except that a
    node or child list of the wrong JSON type raises what Python raises.
    """
    if data.get("format") != "repro.histogram_tree":
        raise ValueError(f"not a histogram-tree document: {data.get('format')!r}")
    if data.get("version") != 1:
        raise ValueError(f"unsupported version {data.get('version')!r}")
    if "root" not in data:
        raise ValueError("histogram-tree document has no 'root' node")
    return _node_from_dict(data["root"])


def reference_release_json(release) -> str:
    """A spatial-tree release's document, frozen as it was written before
    the flat writer: ``json.dumps(release.to_json())``, whose payload
    builds one nested dict per node from the flat arrays, children first.
    """
    flat = release.flat()
    lows = flat.lows.tolist()
    highs = flat.highs.tolist()
    counts = flat.counts.tolist()
    offsets = flat.child_offsets.tolist()
    index = flat.child_index.tolist()
    nodes: list[dict] = [{}] * flat.size
    for i in range(flat.size - 1, -1, -1):
        node: dict = {"low": lows[i], "high": highs[i], "count": counts[i]}
        start, stop = offsets[i], offsets[i + 1]
        if stop > start:
            node["children"] = [nodes[j] for j in index[start:stop]]
        nodes[i] = node
    return json.dumps(
        {
            "format": "repro.release",
            "version": 1,
            "kind": release.kind,
            "method": release.method,
            "epsilon_spent": release.epsilon_spent,
            "payload": {"format": "repro.histogram_tree", "version": 1, "root": nodes[0]},
        }
    )


def reference_range_count_arrays(
    flat: FlatHistogram, q_lows: np.ndarray, q_highs: np.ndarray
) -> np.ndarray:
    """The row-wise batched traversal, frozen as it was before the column one.

    Gathers ``(pairs, d)`` bound rows, tests them with ``np.all(axis=1)``
    and recomputes the node volumes and the leaf mask on every call.
    :meth:`FlatHistogram.range_count_arrays` must return the same bytes.
    """
    q_lows = np.ascontiguousarray(q_lows, dtype=float)
    q_highs = np.ascontiguousarray(q_highs, dtype=float)
    if q_lows.shape != q_highs.shape or q_lows.ndim != 2:
        raise ValueError("query bounds must be matching (n, d) matrices")
    n_queries = q_lows.shape[0]
    if n_queries == 0:
        return np.empty(0)
    if q_lows.shape[1] != flat.ndim:
        raise ValueError(
            f"queries have {q_lows.shape[1]} dims but the synopsis has "
            f"{flat.ndim}"
        )
    counts = flat.counts
    volumes = np.prod(flat.highs - flat.lows, axis=1)
    leaf = np.diff(flat.child_offsets) == 0
    child_offsets = flat.child_offsets
    child_index = flat.child_index

    answers = np.zeros(n_queries)
    # Frontier of (query, node) pairs, all queries at the root.
    query_ids = np.arange(n_queries, dtype=np.intp)
    node_ids = np.zeros(n_queries, dtype=np.intp)
    while node_ids.size:
        node_low = flat.lows[node_ids]
        node_high = flat.highs[node_ids]
        q_low = q_lows[query_ids]
        q_high = q_highs[query_ids]
        overlap = np.minimum(node_high, q_high) - np.maximum(node_low, q_low)
        intersects = np.all(overlap > 0, axis=1)
        covered = np.all((node_low >= q_low) & (node_high <= q_high), axis=1)
        # Fully-covered nodes contribute their count (covered implies
        # intersecting: boxes have positive volume).
        if covered.any():
            answers += np.bincount(
                query_ids[covered],
                weights=counts[node_ids[covered]],
                minlength=n_queries,
            )
        # Partially-covered leaves contribute a uniformity fraction.
        partial = intersects & ~covered & leaf[node_ids]
        if partial.any():
            fractions = (
                np.prod(overlap[partial], axis=1) / volumes[node_ids[partial]]
            )
            answers += np.bincount(
                query_ids[partial],
                weights=counts[node_ids[partial]] * fractions,
                minlength=n_queries,
            )
        # Descend into intersecting, uncovered internal nodes.
        descend = intersects & ~covered & ~leaf[node_ids]
        parents_q = query_ids[descend]
        parents_n = node_ids[descend]
        starts = child_offsets[parents_n]
        n_children = child_offsets[parents_n + 1] - starts
        total = int(n_children.sum())
        if total == 0:
            break
        query_ids = np.repeat(parents_q, n_children)
        # Ragged ranges: element j of pair i maps to child_index[starts_i + j].
        shifts = np.repeat(np.cumsum(n_children) - n_children, n_children)
        node_ids = child_index[
            np.repeat(starts, n_children) + np.arange(total) - shifts
        ]
    return answers


def build_mixed_workload(domain, boxes, n_queries: int, rng):
    """A deterministic mixed-type spatial workload for the bench.

    Cycles range / point / marginal queries: ranges reuse the generated
    box workload, point probes land uniformly in the domain, and marginals
    histogram random sub-intervals of alternating axes (4 bins each, so
    the flat answer vector stays ~2x the query count).
    """
    from ..queries import Marginal1D, PointCount, RangeCount, Workload

    gen = ensure_rng(rng)
    d = domain.ndim
    low = np.asarray(domain.low)
    extents = np.asarray(domain.extents)
    points = low + gen.uniform(0.0, 1.0, size=(n_queries, d)) * extents
    spans = np.sort(gen.uniform(0.0, 1.0, size=(n_queries, 2)), axis=1)
    queries = []
    for i in range(n_queries):
        kind = i % 3
        if kind == 0:
            queries.append(RangeCount.of(boxes[i % len(boxes)]))
        elif kind == 1:
            queries.append(PointCount(point=tuple(points[i])))
        else:
            axis = i % d
            lo = float(low[axis] + spans[i, 0] * extents[axis])
            hi = float(low[axis] + spans[i, 1] * extents[axis])
            if not lo < hi:  # degenerate random span: fall back to the axis
                lo, hi = float(low[axis]), float(low[axis] + extents[axis])
            queries.append(Marginal1D.regular(axis, 4, lo, hi))
    return Workload.of(queries)


def scalar_query_loop(release, workload) -> np.ndarray:
    """The pre-redesign answer path: one scalar ``query`` call per box."""
    domain = release.query_domain
    out = []
    for query in workload:
        for box in query.to_boxes(domain):
            out.append(release.query(box))
    return np.asarray(out)




# ----------------------------------------------------------------------
# The benchmark harness
# ----------------------------------------------------------------------


def _best_of(repeats: int, fn: Callable[[], object]) -> tuple[float, object]:
    """(best wall time, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_sequence_perf_bench(
    n_sequences: int = 200_000,
    n_synthetic: int = 20_000,
    epsilon: float = 1.0,
    repeats: int = 3,
    rng: int = 0,
    l_top: int = 20,
    n_max: int = 5,
    topk_max_length: int = 8,
    n_candidates: int = 2_000,
) -> dict:
    """Time the optimized vs. reference sequence hot paths.

    The corpus is the MSNBC-scale synthetic substitute (alphabet 17, about
    ``4.75 * n_sequences`` tokens).  Gram/substring counts from the
    vectorized paths must equal the dict references *exactly*; frequency
    scoring must match the recursive PST bit-for-bit; batched generation is
    checked distributionally (length-distribution TVD against the scalar
    reference sample).  Returns ``{"config": ..., "cases": ...}``.
    """
    data = msnbclike(n_sequences, rng=rng)
    store = data.truncate(l_top)

    gram_s, grams = _best_of(repeats, lambda: count_grams(store, n_max))
    gram_ref_s, grams_ref = _best_of(
        repeats, lambda: count_grams_reference(store, n_max)
    )
    if grams != grams_ref:
        raise AssertionError("vectorized gram counts deviate from the dict reference")

    # The §6.2 substring workload: count every window, rank by
    # (-count, codes), keep the top candidates.  The optimized path stays
    # array-native end to end; the reference is the dict triple loop plus
    # the Python sort the experiments historically ran.
    sub_s, ranked = _best_of(
        repeats,
        lambda: top_k_substrings(data, n_candidates, topk_max_length),
    )

    def _reference_substring_topk():
        # The pre-optimization path the §6.2 ground truth used to take:
        # dict triple loop + Python sort of the whole table.  Returns the
        # counted table too, so the table-equality check below reuses it
        # instead of paying another multi-second reference pass.
        counts = count_substrings_reference(data, topk_max_length)
        return rank_substring_counts(counts, n_candidates), counts

    sub_ref_s, (subs_ref, table_ref) = _best_of(repeats, _reference_substring_topk)
    if ranked != subs_ref:
        raise AssertionError(
            "vectorized substring ranking deviates from the dict reference"
        )

    table_s, subs = _best_of(
        repeats, lambda: count_substrings(data, topk_max_length)
    )
    if subs != table_ref:
        raise AssertionError(
            "vectorized substring counts deviate from the dict reference"
        )

    build_s, pst = _best_of(
        repeats, lambda: private_pst(data, epsilon=epsilon, l_top=l_top, rng=rng)
    )
    flat = pst.flat()  # compile outside the timed regions, like callers do

    candidates = [codes for codes, _ in ranked]
    score_s, batched_scores = _best_of(
        repeats, lambda: flat.frequency_many(candidates)
    )
    score_ref_s, recursive_scores = _best_of(
        repeats,
        lambda: np.array([pst.string_frequency(c) for c in candidates]),
    )
    scale = max(1.0, float(np.abs(recursive_scores).max()))
    score_deviation = float(np.abs(batched_scores - recursive_scores).max())
    if score_deviation > 1e-9 * scale:
        raise AssertionError(
            f"flat engine deviates from the recursive PST by {score_deviation}"
        )

    generate_s, synthetic = _best_of(
        repeats,
        lambda: flat.sample_dataset(n_synthetic, rng=rng + 1, max_length=l_top),
    )
    generate_ref_s, reference_sample = _best_of(
        repeats,
        lambda: pst.sample_dataset(n_synthetic, rng=rng + 1, max_length=l_top),
    )
    support = l_top + 1
    generation_tvd = total_variation_distance(
        length_distribution([len(s) for s in synthetic], max_length=support),
        length_distribution([len(s) for s in reference_sample], max_length=support),
    )
    # Two independent n-sample empirical distributions over ~support bins
    # differ by ~sqrt(support / n) in TVD even when the laws agree; flag
    # only clear drift beyond that noise floor.
    tvd_limit = max(0.05, 2.0 * (support / n_synthetic) ** 0.5)
    if generation_tvd > tvd_limit:
        raise AssertionError(
            f"batched generation drifted from the reference "
            f"(TVD {generation_tvd} > {tvd_limit})"
        )

    return {
        "config": {
            "n_sequences": n_sequences,
            "n_tokens": int(store.flat.shape[0] - store.n),  # without $
            "n_synthetic": n_synthetic,
            "epsilon": epsilon,
            "repeats": repeats,
            "rng": rng,
            "l_top": l_top,
            "n_max": n_max,
            "topk_max_length": topk_max_length,
            "n_candidates": len(candidates),
            "pst_nodes": pst.size,
            "pst_height": pst.height,
        },
        "cases": {
            "gram_counting": {
                "optimized_s": gram_s,
                "reference_s": gram_ref_s,
                "speedup": gram_ref_s / gram_s,
            },
            "substring_counting": {
                "workload": "count + rank top candidates (exact_top_k)",
                "optimized_s": sub_s,
                "reference_s": sub_ref_s,
                "speedup": sub_ref_s / sub_s,
            },
            "substring_count_table": {
                "workload": "full tuple-keyed Counter (dict materialization)",
                "optimized_s": table_s,
            },
            "pst_build_release": {
                "optimized_s": build_s,
            },
            "topk_scoring": {
                "optimized_s": score_s,
                "reference_s": score_ref_s,
                "speedup": score_ref_s / score_s,
                "max_abs_deviation": score_deviation,
            },
            "pst_generation": {
                "optimized_s": generate_s,
                "reference_s": generate_ref_s,
                "speedup": generate_ref_s / generate_s,
                "length_tvd_vs_reference": generation_tvd,
            },
        },
    }


def run_service_perf_bench(
    synopsis: HistogramTree,
    queries,
    epsilon: float,
    repeats: int = 3,
) -> dict:
    """Time cache-hit batched queries through the serving stack.

    Publishes the synopsis into a temporary :class:`~repro.serve.
    ReleaseStore`, loads it once through a :class:`~repro.serve.
    SynopsisService` (paying the load + flat-engine compile exactly once),
    then times the steady-state path a deployed ``repro serve`` spends its
    life on: LRU hit -> ``range_count_many`` on the cached compiled engine.
    The answers are asserted bit-identical to querying the in-memory flat
    engine directly — the store round-trip must not change a single float.
    """
    import tempfile

    from ..api.releases import SpatialTreeRelease
    from ..serve import ReleaseStore, SynopsisService

    direct = synopsis.flat().range_count_many(queries)
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        store = ReleaseStore(root)
        release = SpatialTreeRelease(synopsis, method="privtree", epsilon_spent=epsilon)
        release_id = store.put(release, dataset="bench")
        service = SynopsisService(store, cache_size=4)
        served = service.query_many(release_id, queries)  # cold: load + compile
        if not np.array_equal(served, direct):
            raise AssertionError(
                "served answers deviate from the in-process flat engine"
            )
        service_s, _ = _best_of(
            repeats, lambda: service.query_many(release_id, queries)
        )
    return {
        "optimized_s": service_s,
        "queries_per_s": len(queries) / service_s,
        "cache_hit": True,
    }


def synthetic_flat_histogram(depth: int = 8):
    """A complete quadtree over the unit square as a ``FlatHistogram``.

    Built directly in array form (no Python pointer tree), so benches can
    cheaply synthesize release artifacts at serving scale: ``depth=8``
    gives ``(4**9 - 1) / 3`` = 87,381 nodes, about the node count of a
    production PrivTree fit over a dense dataset.  Level-order layout —
    children always follow their parents, which is all the flat engines
    require of the topology.
    """
    level_sizes = [4**level for level in range(depth + 1)]
    level_starts = np.concatenate(([0], np.cumsum(level_sizes)))
    m = int(level_starts[-1])
    lows = np.empty((m, 2))
    highs = np.empty((m, 2))
    parents = np.full(m, -1, dtype=np.intp)
    n_children = np.zeros(m, dtype=np.int64)
    for level in range(depth + 1):
        start, size = int(level_starts[level]), level_sizes[level]
        side = 2**level
        j = np.arange(size)
        row, col = j // side, j % side
        lows[start : start + size, 0] = col / side
        lows[start : start + size, 1] = row / side
        highs[start : start + size, 0] = (col + 1) / side
        highs[start : start + size, 1] = (row + 1) / side
        if level > 0:
            parent_side = side // 2
            parents[start : start + size] = (
                level_starts[level - 1] + (row // 2) * parent_side + (col // 2)
            )
        if level < depth:
            n_children[start : start + size] = 4
    child_offsets = np.concatenate(([0], np.cumsum(n_children)))
    child_index = np.empty(m - 1, dtype=np.intp)
    for level in range(depth):
        start, size = int(level_starts[level]), level_sizes[level]
        side = 2**level
        j = np.arange(size)
        row, col = j // side, j % side
        # The four quadrants of cell (row, col) on the doubled grid.
        top_left = level_starts[level + 1] + (2 * row) * (2 * side) + 2 * col
        quads = np.stack(
            [top_left, top_left + 1, top_left + 2 * side, top_left + 2 * side + 1],
            axis=1,
        )
        child_index[child_offsets[start] : child_offsets[start + size]] = (
            quads.ravel()
        )
    counts = (np.arange(m, dtype=np.float64) * 0.73 + 1.0) % 997.0
    return FlatHistogram(
        lows=lows,
        highs=highs,
        counts=counts,
        parents=parents,
        child_offsets=child_offsets,
        child_index=child_index,
    )


def _quadtree_depth(n_points: int) -> int:
    """Depth of the largest complete quadtree with at most one node per
    two points: 8 (87,381 nodes) at the default 200k points."""
    depth = 0
    while (4 ** (depth + 2) - 1) // 3 <= n_points // 2:
        depth += 1
    return depth


def run_artifact_cold_load_bench(depth: int = 8, repeats: int = 3) -> dict:
    """Time a cold release load: v2 binary mmap vs. the v1 JSON envelope.

    Writes one synthetic ~100k-node release in both on-disk forms, then
    times file -> warmed query engine for each.  The v2 path is a header
    parse + checksum + ``np.memmap`` per array segment; the reference is
    the v1 path as it was before JSON decoded straight into arrays: a full
    JSON parse, the frozen node decoder and the frozen node compile.  The
    two loaded engines, and the library's JSON decoder, must answer a
    probe workload bit-identically — the format can't move a single float.
    """
    import tempfile
    from pathlib import Path

    from ..api.base import release_from_json
    from ..api.releases import SpatialTreeRelease
    from ..serve.artifact import read_artifact, write_artifact

    # Lay the synthetic level-order arrays out in pre-order: the JSON
    # paths load in pre-order, and bit-identity needs every load summing
    # in one layout.
    flat = FlatHistogram.from_tree(synthetic_flat_histogram(depth).to_tree())
    release = SpatialTreeRelease(flat=flat, method="privtree", epsilon_spent=1.0)
    probe = [
        (np.array([0.1, 0.1]), np.array([0.4, 0.5])),
        (np.array([0.0, 0.0]), np.array([1.0, 1.0])),
        (np.array([0.62, 0.03]), np.array([0.91, 0.77])),
    ]
    probe_lows = np.array([low for low, _ in probe])
    probe_highs = np.array([high for _, high in probe])
    expected = flat.range_count_arrays(probe_lows, probe_highs)

    with tempfile.TemporaryDirectory(prefix="repro-bench-artifact-") as root:
        bin_path = Path(root) / "release.bin"
        json_path = Path(root) / "release.json"
        n_bytes = write_artifact(release, bin_path)
        json_path.write_text(release.to_json_text())
        json_bytes = json_path.stat().st_size

        def _load_v2():
            loaded = read_artifact(bin_path)
            loaded.warm()
            return loaded

        def _load_v1():
            document = json.loads(json_path.read_text())
            return reference_flat_from_nodes(
                reference_nodes_from_dict(document["payload"])
            )

        v2_s, v2_release = _best_of(repeats, _load_v2)
        v1_s, v1_flat = _best_of(repeats, _load_v1)
        decoded = release_from_json(json.loads(json_path.read_text()))
        answers = [
            engine.range_count_arrays(probe_lows, probe_highs)
            for engine in (v2_release, v1_flat, decoded)
        ]
        if not all(np.array_equal(each, expected) for each in answers):
            raise AssertionError(
                "artifact-loaded engines deviate from the in-memory flat engine"
            )
    return {
        "workload": f"{flat.size:,}-node release, file -> warmed engine",
        "optimized_s": v2_s,
        "reference_s": v1_s,
        "speedup": v1_s / v2_s,
        "cold_load_ms": v2_s * 1e3,
        "artifact_bytes": n_bytes,
        "json_bytes": json_bytes,
        "bit_identical_to_json": True,
    }


def _serve_subprocess(store_root: str, port: int, workers: int):
    """Start ``repro serve`` in a subprocess; yields once /healthz answers."""
    import contextlib
    import os
    import subprocess
    import sys
    from pathlib import Path

    import urllib.error
    import urllib.request

    import repro

    # The child must import repro even when only the parent's sys.path
    # knows where it lives (pytest's pythonpath=src, editable checkouts).
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )

    @contextlib.contextmanager
    def _running():
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
                "serve",
                "--store",
                store_root,
                "--port",
                str(port),
                "--workers",
                str(workers),
                "--quiet",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            deadline = time.perf_counter() + 30.0
            while True:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/healthz", timeout=1.0
                    ):
                        break
                except (urllib.error.URLError, ConnectionError, OSError):
                    if proc.poll() is not None:
                        raise RuntimeError(
                            f"serve subprocess exited with {proc.returncode}"
                        ) from None
                    if time.perf_counter() > deadline:
                        raise RuntimeError("serve subprocess never became healthy")
                    time.sleep(0.05)
            yield
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    return _running()


def run_service_throughput_bench(
    synopsis: HistogramTree,
    domain,
    epsilon: float,
    n_batch_queries: int = 10_000,
    clients: int = 2,
    worker_counts: tuple[int, ...] = (1, 2),
    rng: int = 0,
) -> dict:
    """End-to-end served q/s: binary wire + mmap artifacts vs. JSON.

    Publishes the synopsis to a store, runs ``repro serve`` as a real
    subprocess (per worker count), and drives it with
    :func:`~repro.experiments.loadgen.run_load`: ``clients`` keep-alive
    connections each POSTing a ``n_batch_queries``-range-count batch
    back-to-back.  The optimized path is the packed binary wire form; the
    reference is the identical workload as a v1 JSON batch against the
    same server.  One binary response is decoded and asserted
    bit-identical to the in-process ``release.answer`` before any timing
    counts.
    """
    import tempfile
    import urllib.request

    from ..api.releases import SpatialTreeRelease
    from ..queries import (
        BINARY_WIRE_CONTENT_TYPE,
        RangeCount,
        Workload,
        decode_binary_answers,
        encode_binary_workload,
    )
    from ..serve import ReleaseStore
    from .loadgen import run_load

    boxes = generate_workload(domain, "medium", n_batch_queries, rng=rng + 9)
    workload = Workload.of(
        [RangeCount(low=tuple(b.low), high=tuple(b.high)) for b in boxes]
    )
    release = SpatialTreeRelease(synopsis, method="privtree", epsilon_spent=epsilon)
    expected = release.answer(workload)
    binary_payload = encode_binary_workload(workload)
    json_payload = json.dumps(
        {"queries": [query.to_wire() for query in workload]}
    ).encode("utf-8")

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as root:
        store = ReleaseStore(root)
        release_id = store.put(release, dataset="bench")
        port = _free_port()
        runs: dict[str, dict] = {}
        reference_s = None
        for workers in worker_counts:
            with _serve_subprocess(root, port, workers):
                url = f"http://127.0.0.1:{port}/releases/{release_id}/query"
                request = urllib.request.Request(
                    url,
                    data=binary_payload,
                    headers={"Content-Type": BINARY_WIRE_CONTENT_TYPE},
                )
                with urllib.request.urlopen(request, timeout=30.0) as response:
                    values, _ = decode_binary_answers(response.read())
                if not np.array_equal(values, expected):
                    raise AssertionError(
                        "served binary answers deviate from in-process answer()"
                    )
                result = run_load(
                    "127.0.0.1",
                    port,
                    release_id,
                    binary_payload,
                    content_type=BINARY_WIRE_CONTENT_TYPE,
                    queries_per_batch=len(workload),
                    clients=clients,
                    batches_per_client=25,
                )
                runs[f"binary_workers_{workers}"] = result.to_json()
                if workers == worker_counts[0]:
                    json_result = run_load(
                        "127.0.0.1",
                        port,
                        release_id,
                        json_payload,
                        content_type="application/json",
                        queries_per_batch=len(workload),
                        clients=clients,
                        batches_per_client=3,
                    )
                    runs[f"json_workers_{workers}"] = json_result.to_json()
                    reference_s = 1.0 / json_result.batches_per_s
    best = max(
        (runs[k] for k in runs if k.startswith("binary_")),
        key=lambda r: r["queries_per_s"],
    )
    optimized_s = 1.0 / best["batches_per_s"]
    import os

    return {
        "workload": (
            f"{n_batch_queries:,} range counts per batch, "
            f"{clients} keep-alive clients, served over HTTP"
        ),
        "optimized_s": optimized_s,
        "reference_s": reference_s,
        "speedup": reference_s / optimized_s,
        "queries_per_s": best["queries_per_s"],
        "p50_ms": best["p50_ms"],
        "p99_ms": best["p99_ms"],
        "bit_identical_to_inprocess": True,
        # Worker scaling is core-bound: on a 1-CPU container every worker
        # shares the same core and q/s is the engine's traversal rate.
        "cpu_count": os.cpu_count(),
        "runs": runs,
    }


def _free_port() -> int:
    """An OS-assigned free TCP port (closed again; tiny reuse race is fine)."""
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def run_perf_bench(
    n_points: int = 200_000,
    n_queries: int = 1_000,
    band: str = "medium",
    epsilon: float = 1.0,
    repeats: int = 3,
    rng: int = 0,
    n_sequences: int = 200_000,
    n_synthetic: int = 20_000,
) -> dict:
    """Time the optimized vs. reference spatial *and* sequence hot paths.

    Returns a JSON-ready dict: per-case best-of-``repeats`` wall times, the
    speedup ratios, and the max |flat - recursive| query deviation (the
    harness fails loudly if the engines disagree beyond 1e-9 relative).
    The served batches and the mixed workload hold ``10 * n_queries``
    queries, and the cold-loaded release scales with ``n_points``, so the
    defaults time 10k-query workloads and an 87k-node release.
    """
    n_mixed_queries = 10 * n_queries
    data = gowallalike(n_points, rng=rng)
    queries = generate_workload(data.domain, band, n_queries, rng=rng + 1)

    # The build is the fit's own output, the flat arrays.
    build_s, flat = _best_of(
        repeats, lambda: _privtree_flat(data, epsilon=epsilon, rng=rng)
    )
    synopsis = flat.to_tree()

    # Telemetry overhead.  The disabled-mode claim ("span sites add at
    # most a few percent to privtree_build") is asserted from first
    # principles: the measured per-call cost of the no-op span path
    # times the number of telemetry call sites one build actually hits,
    # as a fraction of the build time.  That product is deterministic
    # where an A/B wall-clock comparison of two identical builds is not
    # (run-to-run jitter on a busy CI box dwarfs a 5% signal).  The
    # enabled-mode build is timed too — recorded, never gated.
    from .. import telemetry as _telemetry

    disabled_s, _ = _best_of(
        repeats, lambda: _privtree_flat(data, epsilon=epsilon, rng=rng)
    )
    n_noop_calls = 200_000
    noop_start = time.perf_counter()
    for _ in range(n_noop_calls):
        with _telemetry.span("bench.noop", depth=0, frontier=0):
            pass
    noop_span_s = (time.perf_counter() - noop_start) / n_noop_calls
    tracer = _telemetry.enable()
    try:
        enabled_s, _ = _best_of(
            repeats, lambda: _privtree_flat(data, epsilon=epsilon, rng=rng)
        )
    finally:
        _telemetry.disable()
    spans_recorded = len(tracer.records)
    if spans_recorded == 0:
        raise AssertionError(
            "telemetry-enabled privtree build recorded no spans"
        )
    # Every record the enabled build produced is one call site that the
    # disabled build paid the no-op price for (events are cheaper than
    # spans, so this over-counts — a conservative bound).
    sites_per_build = spans_recorded / max(repeats, 1)
    overhead_disabled = (noop_span_s * sites_per_build) / build_s
    if overhead_disabled > 0.05:
        raise AssertionError(
            f"disabled telemetry costs {overhead_disabled * 100:.2f}% of a "
            f"privtree build ({sites_per_build:.0f} no-op sites at "
            f"{noop_span_s * 1e9:.0f}ns each over {build_s:.4f}s); the no-op "
            "span path must stay within 5%"
        )

    # The reference builds nodes; they are compiled to arrays untimed, and
    # its recursive traversal below walks them.
    build_ref_s, reference = _best_of(
        repeats, lambda: reference_privtree_nodes(data, epsilon=epsilon, rng=rng)
    )
    expected = reference_flat_from_nodes(reference)
    for name in ("lows", "highs", "counts", "parents", "child_offsets", "child_index"):
        if not np.array_equal(getattr(flat, name), getattr(expected, name)):
            raise AssertionError(
                f"optimized and reference builds diverged in {name}: "
                f"size {flat.size} vs {expected.size}"
            )

    query_s, batched = _best_of(repeats, lambda: flat.range_count_many(queries))
    query_ref_s, recursive = _best_of(
        repeats, lambda: reference_workload_answers(reference, queries)
    )
    scale = max(1.0, float(np.abs(recursive).max()))
    max_deviation = float(np.abs(batched - recursive).max())
    if max_deviation > 1e-9 * scale:
        raise AssertionError(
            f"flat engine deviates from the recursive traversal by {max_deviation}"
        )

    workload_s, _ = _best_of(
        repeats, lambda: generate_workload(data.domain, band, n_queries, rng=rng + 1)
    )

    # The federated fit: K in-process blinded collectors, secure count
    # aggregation, coordinator noise.  Must rebuild the exact centralized
    # synopsis bit-for-bit under the same seed — the fit's defining
    # guarantee — so the case both times the protocol overhead and guards
    # the identity in CI.
    from ..spatial.serialize import tree_to_dict

    n_shards = 4
    fed_s, fed_tree = _best_of(
        repeats,
        lambda: federated_privtree_histogram(
            shard_dataset(data, n_shards), epsilon=epsilon, rng=rng
        ),
    )
    if tree_to_dict(fed_tree) != tree_to_dict(synopsis):
        raise AssertionError(
            "federated fit deviates from the centralized release"
        )

    # The same fit through the full TCP transport stack — real sockets,
    # framed messages, key exchange, retry engine — against collector
    # servers in this process.  Times the wire overhead per fit and guards
    # the transport's bit-identity the same way the in-process case does.
    def _tcp_fit() -> HistogramTree:
        from ..federated.collector import ShardCollector
        from ..federated.net import (
            CollectorEndpoint,
            CollectorServer,
            connect_collectors,
        )

        servers, addresses = [], []
        try:
            for i, shard in enumerate(shard_dataset(data, n_shards)):
                server = CollectorServer(
                    ("127.0.0.1", 0),
                    CollectorEndpoint(ShardCollector(i, n_shards, shard)),
                )
                server.serve_in_thread()
                servers.append(server)
                addresses.append(("127.0.0.1", server.port))
            clients = connect_collectors(addresses, session="perf")
            driver = FederatedPrivTree(clients)
            tree = driver.fit_histogram(epsilon, rng=rng)
            for client in clients:
                client.finish()
            return tree
        finally:
            for server in servers:
                server.shutdown()
                server.server_close()

    fed_tcp_s, fed_tcp_tree = _best_of(repeats, _tcp_fit)
    if tree_to_dict(fed_tcp_tree) != tree_to_dict(synopsis):
        raise AssertionError(
            "TCP federated fit deviates from the centralized release"
        )

    service_case = run_service_perf_bench(
        synopsis, queries, epsilon=epsilon, repeats=repeats
    )
    artifact_case = run_artifact_cold_load_bench(
        depth=_quadtree_depth(n_points), repeats=repeats
    )
    throughput_case = run_service_throughput_bench(
        synopsis,
        data.domain,
        epsilon=epsilon,
        n_batch_queries=10 * n_queries,
        rng=rng,
    )

    # The typed query surface: a mixed range/point/marginal workload
    # through one `release.answer` dispatch vs. the scalar `query` loop
    # over the same compiled boxes — answers must agree bit-for-bit.
    from ..api.releases import SpatialTreeRelease

    release = SpatialTreeRelease(synopsis, method="privtree", epsilon_spent=epsilon)
    mixed = build_mixed_workload(data.domain, queries, n_mixed_queries, rng + 2)
    answer_s, typed_answers = _best_of(repeats, lambda: release.answer(mixed))
    scalar_s, scalar_answers = _best_of(
        repeats, lambda: scalar_query_loop(release, mixed)
    )
    if not np.array_equal(typed_answers, scalar_answers):
        raise AssertionError(
            "typed workload answers deviate from the scalar query loop"
        )

    # Publishing: the fit's document written from the flat arrays vs. the
    # frozen dict-then-json.dumps path, which must give the same bytes.
    json_s, json_text = _best_of(repeats, release.to_json_text)
    json_ref_s, reference_text = _best_of(
        repeats, lambda: reference_release_json(release)
    )
    if json_text != reference_text:
        raise AssertionError(
            "to_json_text deviates from the frozen json.dumps(to_json()) document"
        )

    sequence = run_sequence_perf_bench(
        n_sequences=n_sequences,
        n_synthetic=n_synthetic,
        epsilon=epsilon,
        repeats=repeats,
        rng=rng,
    )

    return {
        "config": {
            "n_points": n_points,
            "n_queries": n_queries,
            "band": band,
            "epsilon": epsilon,
            "repeats": repeats,
            "rng": rng,
            "tree_nodes": synopsis.size,
            "tree_leaves": synopsis.leaf_count,
            "sequence": sequence["config"],
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "cases": {
            "privtree_build": {
                "optimized_s": build_s,
                "reference_s": build_ref_s,
                "speedup": build_ref_s / build_s,
            },
            "workload_queries": {
                "optimized_s": query_s,
                "reference_s": query_ref_s,
                "speedup": query_ref_s / query_s,
                "max_abs_deviation": max_deviation,
            },
            "workload_generation": {
                "optimized_s": workload_s,
            },
            "federated_fit": {
                "workload": (
                    f"{n_shards} blinded shard collectors -> secure aggregation"
                ),
                "optimized_s": fed_s,
                "centralized_s": build_s,
                "overhead_vs_centralized": fed_s / build_s,
                "bit_identical_to_centralized": True,
            },
            "federated_fit_tcp": {
                "workload": (
                    f"{n_shards} collector servers over framed TCP "
                    "(hello + key exchange + all rounds)"
                ),
                "optimized_s": fed_tcp_s,
                "inproc_s": fed_s,
                "overhead_vs_inproc": fed_tcp_s / fed_s,
                "bit_identical_to_centralized": True,
            },
            "workload_answering": {
                "workload": (
                    f"{n_mixed_queries:,} mixed range/point/marginal queries"
                ),
                "optimized_s": answer_s,
                "reference_s": scalar_s,
                "speedup": scalar_s / answer_s,
                "n_answers": int(typed_answers.shape[0]),
            },
            "release_json": {
                "workload": f"{synopsis.size:,}-node fitted release -> JSON text",
                "optimized_s": json_s,
                "reference_s": json_ref_s,
                "speedup": json_ref_s / json_s,
                "json_bytes": len(json_text.encode("utf-8")),
                "bytes_identical_to_reference": True,
            },
            "service_cached_queries": service_case,
            "artifact_cold_load": artifact_case,
            "service_throughput": throughput_case,
            "telemetry_overhead": {
                "workload": "privtree build: tracing disabled vs enabled",
                "optimized_s": disabled_s,
                "build_s": build_s,
                "noop_span_s": noop_span_s,
                "sites_per_build": sites_per_build,
                "overhead_disabled": overhead_disabled,
                "enabled_s": enabled_s,
                "overhead_enabled": enabled_s / disabled_s,
                "spans_recorded": spans_recorded,
            },
            **sequence["cases"],
        },
    }


#: The cases :func:`run_perf_bench` produces.  The committed
#: ``BENCH_perf.json`` holds exactly these, so the gate has a baseline for
#: every case it runs.
BENCH_CASES = frozenset({
    "privtree_build",
    "workload_queries",
    "workload_generation",
    "workload_answering",
    "release_json",
    "federated_fit",
    "federated_fit_tcp",
    "service_cached_queries",
    "artifact_cold_load",
    "service_throughput",
    "telemetry_overhead",
    "gram_counting",
    "substring_counting",
    "substring_count_table",
    "pst_build_release",
    "topk_scoring",
    "pst_generation",
})

#: The cases whose ``speedup`` is against a reference the timed path
#: never runs (a frozen replica or the pointer-tree walk), so only these
#: speedups are gated.  The others share code with what they time:
#: ``workload_answering``'s scalar loop runs the same flat engine,
#: ``artifact_cold_load``'s JSON load the same store code and
#: ``service_throughput``'s JSON requests the same server, so a slowdown
#: there cancels out of the ratio; they are gated on seconds.
FROZEN_REFERENCE_CASES = frozenset({
    "privtree_build",
    "workload_queries",
    "release_json",
    "gram_counting",
    "substring_counting",
    "topk_scoring",
    "pst_generation",
})

#: A case regressing past this factor of its baseline is flagged by
#: ``repro bench --compare``.
REGRESSION_THRESHOLD = 1.2

#: The ``machine`` fields that name a runner class; seconds compare only
#: between runs of one class.
RUNNER_KEYS = ("cpu_count", "python", "numpy")


def _baseline_cases(baseline: dict) -> dict:
    """The baseline's case table, or ``{}`` for malformed documents."""
    cases = baseline.get("cases") if isinstance(baseline, dict) else None
    return cases if isinstance(cases, dict) else {}


def _runner(document: dict) -> tuple | None:
    """The runner class a bench document was measured on, if it says."""
    machine = document.get("machine") if isinstance(document, dict) else None
    if not isinstance(machine, dict):
        return None
    return tuple(machine.get(key) for key in RUNNER_KEYS)


def _positive(entry: object, key: str) -> float | None:
    """``entry[key]`` as a positive float, or ``None`` when unusable.

    Old or hand-edited baselines may hold a bare number (or garbage) where
    a case dict is expected; anything that isn't a usable value reads as
    missing so ``--compare`` never crashes on it.
    """
    value = entry.get(key) if isinstance(entry, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if value > 0 else None


def _gate_cases(results: dict, baseline: dict) -> dict[str, tuple[str, float | None]]:
    """How each case of ``results`` compares to ``baseline``.

    Maps a case name to ``(basis, slowdown)``:

    * ``"seconds"`` — both sides carry ``optimized_s`` and were measured
      on the same runner (:data:`RUNNER_KEYS`); the slowdown is current ÷
      baseline seconds;
    * ``"speedup"`` — a :data:`FROZEN_REFERENCE_CASES` case with a
      ``speedup`` on both sides; the slowdown is baseline speedup ÷
      current speedup, which travels across machines.  On the same
      runner such a case takes the worse of its two slowdowns;
    * ``"other runner"`` — no speedup basis, seconds from another runner:
      not gated (slowdown ``None``);
    * ``"new"`` — the baseline has no usable entry (slowdown ``None``).
    """
    base_cases = _baseline_cases(baseline)
    same_runner = _runner(results) == _runner(baseline)
    out: dict[str, tuple[str, float | None]] = {}
    for name, case in sorted(results.get("cases", {}).items()):
        entry = base_cases.get(name)
        base_speedup, speedup = _positive(entry, "speedup"), _positive(case, "speedup")
        base_s, seconds = _positive(entry, "optimized_s"), _positive(case, "optimized_s")
        slowdowns = {}
        if same_runner and base_s and seconds:
            slowdowns["seconds"] = seconds / base_s
        if name in FROZEN_REFERENCE_CASES and base_speedup and speedup:
            slowdowns["speedup"] = base_speedup / speedup
        if slowdowns:
            basis = max(slowdowns, key=slowdowns.get)
            out[name] = (basis, slowdowns[basis])
        elif base_s and seconds:
            out[name] = ("other runner", None)
        else:
            out[name] = ("new", None)
    return out


def compare_bench_results(results: dict, baseline: dict) -> tuple[str, int]:
    """Render the regression table of ``results`` vs. a committed baseline.

    Returns ``(table, n_regressions)`` where a regression is any gated case
    (see :func:`_gate_cases`) slower than :data:`REGRESSION_THRESHOLD` times
    its baseline.  New cases, cases measured on another runner and cases
    absent from the current run are listed but never counted here.
    """
    lines = [
        f"{'case':22s} {'baseline':>10s} {'current':>10s} {'ratio':>7s}",
    ]
    base_cases = _baseline_cases(baseline)
    n_regressions = 0
    for name, (basis, ratio) in _gate_cases(results, baseline).items():
        case = results["cases"][name]
        current = _positive(case, "optimized_s")
        shown = "-" if current is None else f"{current * 1e3:9.1f}ms"
        if basis == "new":
            lines.append(f"{name:22s} {'-':>10s} {shown}  (new case)")
            continue
        if basis == "other runner":
            lines.append(f"{name:22s} {'-':>10s} {shown}  (not gated: other runner)")
            continue
        if basis == "speedup":
            base = f"{_positive(base_cases[name], 'speedup'):9.1f}x"
            now = f"{_positive(case, 'speedup'):9.1f}x"
        else:
            base = f"{_positive(base_cases[name], 'optimized_s') * 1e3:9.1f}ms"
            now = shown
        flag = ""
        if ratio > REGRESSION_THRESHOLD:
            flag = f"  WARNING: >{(REGRESSION_THRESHOLD - 1) * 100:.0f}% regression"
            n_regressions += 1
        lines.append(f"{name:22s} {base} {now} {ratio:6.2f}x  ({basis}){flag}")
    for name in sorted(set(base_cases) - set(results.get("cases", {}))):
        lines.append(f"{name:22s}  (missing from current run)")
    if n_regressions:
        lines.append(
            f"{n_regressions} case(s) regressed more than "
            f"{(REGRESSION_THRESHOLD - 1) * 100:.0f}% vs the baseline"
        )
    else:
        lines.append("no case regressed vs the baseline")
    return "\n".join(lines), n_regressions


def bench_regression_failures(
    results: dict, baseline: dict, threshold: float
) -> list[tuple[str, float]]:
    """The gated cases slower than ``threshold`` times their baseline.

    The blocking counterpart of :func:`compare_bench_results`: the table
    flags >20% slowdowns as warnings, while ``repro bench --fail-above R``
    turns any case in this list into a non-zero exit (CI uses ``R=1.5``).
    Cases without a usable baseline entry are not regressions; the gate
    fails them separately (:func:`bench_new_cases`).
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return [
        (name, ratio)
        for name, (_, ratio) in _gate_cases(results, baseline).items()
        if ratio is not None and ratio > threshold
    ]


def bench_new_cases(results: dict, baseline: dict) -> list[str]:
    """The cases of ``results`` that ``baseline`` has no usable entry for.

    ``repro bench --fail-above`` fails on each of them, so a clobbered or
    stale baseline cannot keep the gate green.
    """
    return [
        name
        for name, (basis, _) in _gate_cases(results, baseline).items()
        if basis == "new"
    ]


def write_bench_json(results: dict, path: str) -> None:
    """Persist bench results as machine-readable JSON."""
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
