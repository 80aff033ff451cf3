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

Each case runs its optimized and reference paths alternately and records
each side's median and interquartile range.  Results are returned as a
plain dict (and written as ``BENCH_perf.json`` by the CLI) so CI can
archive the numbers and the perf trajectory is machine-readable;
:func:`compare_bench_results` renders the regression table behind
``repro bench --compare``, and :func:`bench_markdown_table` the README's
Performance table.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..baselines.ngram import count_grams, count_grams_reference
from ..core.node import DecompositionTree, TreeNode
from ..core.params import PrivTreeParams
from ..core.privtree import DEFAULT_MAX_DEPTH, privtree
from ..datasets.sequence import msnbclike
from ..datasets.spatial import gowallalike
from ..domains.box import Box
from ..federated.driver import federated_privtree_histogram, shard_dataset
from ..mechanisms.accountant import PrivacyAccountant
from ..mechanisms.geometric import geometric_noise
from ..mechanisms.laplace import laplace_noise
from ..mechanisms.rng import RngLike, ensure_rng
from ..sequence.alphabet import Alphabet
from ..sequence.dataset import SequenceDataset, TokenStore
from ..sequence.metrics import length_distribution, total_variation_distance
from ..sequence.private_pst import private_pst
from ..sequence.serialize import pst_to_dict
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
    "PSTNode",
    "PredictionSuffixTree",
    "bench_markdown_table",
    "bench_new_cases",
    "bench_regression_failures",
    "build_mixed_workload",
    "compare_bench_results",
    "reference_flat_from_nodes",
    "reference_exact_pst",
    "reference_nodes_from_dict",
    "reference_privtree_histogram",
    "reference_private_pst",
    "reference_privtree_nodes",
    "reference_pst_arrays",
    "reference_pst_from_dict",
    "reference_pst_to_dict",
    "reference_range_count",
    "reference_range_count_arrays",
    "reference_release_json",
    "reference_workload_answers",
    "run_artifact_cold_load_bench",
    "run_perf_bench",
    "run_sequence_perf_bench",
    "run_service_perf_bench",
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
    """Compile a tree of nodes into flat arrays, laid out in pre-order.

    The compile is frozen; its last step builds the arrays through
    :class:`FlatHistogram`'s constructor and raises ``AssertionError``
    unless the child lists the constructor derives are this compile's,
    in values and dtypes.
    """
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
    flat = FlatHistogram(lows, highs, counts, parents)
    compiled = {"child_offsets": child_offsets, "child_index": child_index}
    for name, array in compiled.items():
        derived = getattr(flat, name)
        if derived.dtype != array.dtype or not np.array_equal(derived, array):
            raise AssertionError(f"the derived {name} differs from the node compile")
    return flat


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


# ----------------------------------------------------------------------
# Frozen pointer PST references
# ----------------------------------------------------------------------


@dataclass
class PSTNode:
    """A released PST node: context, histogram, children by prepended code.

    The pointer form a released PST had before :class:`~repro.sequence.
    flat.FlatPST` became its only in-memory form, frozen with its walks,
    release step, compile and JSON codec below as the references the
    tests and ``repro bench`` hold the array paths to.
    """

    context: tuple[int, ...]
    hist: np.ndarray
    children: dict[int, "PSTNode"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        """Whether the node has no children."""
        return not self.children

    @property
    def magnitude(self) -> float:
        """``‖hist(v)‖₁`` — the total of the prediction histogram."""
        return float(self.hist.sum())

    def iter_nodes(self) -> Iterator["PSTNode"]:
        """All nodes of the subtree, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())


@dataclass
class PredictionSuffixTree:
    """A pointer PST supporting string-frequency estimation and sampling,
    one node at a time.

    Structural statistics (``size``, ``height``) are computed lazily on
    first access and cached.
    """

    alphabet: Alphabet
    root: PSTNode
    _stats: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _compute_stats(self) -> tuple[int, int]:
        """(size, height) in one iterative traversal."""
        if self._stats is None:
            size = height = 0
            for node in self.root.iter_nodes():
                size += 1
                if len(node.context) > height:
                    height = len(node.context)
            self._stats = (size, height)
        return self._stats

    @property
    def size(self) -> int:
        """Total number of nodes."""
        return self._compute_stats()[0]

    @property
    def height(self) -> int:
        """Longest context length."""
        return self._compute_stats()[1]

    def lookup(self, context: Sequence[int]) -> PSTNode:
        """The node whose predictor string is the longest suffix of ``context``.

        Children prepend symbols, so the walk consumes ``context`` from its
        end backwards.
        """
        node = self.root
        for code in reversed(list(context)):
            child = node.children.get(int(code))
            if child is None:
                break
            node = child
        return node

    def _step_distribution(self, node: PSTNode) -> np.ndarray | None:
        total = node.hist.sum()
        if total <= 0:
            return None
        return node.hist / total

    @staticmethod
    def _sample_code(dist: np.ndarray, gen: np.random.Generator) -> int:
        # Inverse-CDF sampling: considerably faster than Generator.choice
        # for the small histograms sampled once per generated symbol.
        return int(np.searchsorted(np.cumsum(dist), gen.random(), side="right"))

    def string_frequency(self, codes: Sequence[int]) -> float:
        """Estimate how often the string occurs in ``D`` (Equation (12)).

        ``codes`` must be plain symbols (no sentinels).  The first symbol's
        count comes from the root histogram; every further symbol multiplies
        by the conditional probability predicted by the longest matching
        context.
        """
        codes = [int(c) for c in codes]
        if not codes:
            raise ValueError("query string must be non-empty")
        if any(c >= self.alphabet.size or c < 0 for c in codes):
            raise ValueError("query string must contain ordinary symbols only")
        answer = float(self.root.hist[codes[0]])
        for i in range(1, len(codes)):
            if answer <= 0:
                return 0.0
            node = self.lookup(codes[:i])
            dist = self._step_distribution(node)
            if dist is None:
                return 0.0
            answer *= float(dist[codes[i]])
        return max(answer, 0.0)

    def sample_sequence(
        self, rng: RngLike = None, max_length: int | None = None
    ) -> np.ndarray:
        """Generate one synthetic sequence (Section 4.1's sampling procedure).

        Starts from the context ``[$]`` and repeatedly samples the next
        symbol from the longest-matching node's histogram until ``&`` or
        ``max_length`` symbols.  Returns plain symbol codes (no sentinels).
        """
        gen = ensure_rng(rng)
        if max_length is None:
            max_length = 10_000
        context: list[int] = [self.alphabet.start_code]
        out: list[int] = []
        end = self.alphabet.end_code
        for _ in range(max_length):
            node = self.lookup(context)
            dist = self._step_distribution(node)
            if dist is None:
                break
            code = min(self._sample_code(dist, gen), len(dist) - 1)
            if code == end:
                break
            out.append(code)
            context.append(code)
        return np.asarray(out, dtype=np.int64)

    def sample_dataset(
        self, n: int, rng: RngLike = None, max_length: int | None = None
    ) -> list[np.ndarray]:
        """Sample ``n`` synthetic sequences."""
        gen = ensure_rng(rng)
        return [self.sample_sequence(gen, max_length) for _ in range(n)]

    def top_k_strings(
        self, k: int, max_length: int = 12
    ) -> list[tuple[tuple[int, ...], float]]:
        """The model's ``k`` most frequent strings, by best-first search.

        Equation (12) estimates are non-increasing under extension (each
        step multiplies by a probability), so a priority queue over prefixes
        explores exactly the candidates that can still reach the answer set.
        Returns ``(codes, estimated_count)`` pairs, most frequent first.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        counter = 0
        heap: list[tuple[float, int, tuple[int, ...]]] = []
        for code in range(self.alphabet.size):
            est = self.string_frequency([code])
            heap.append((-est, counter, (code,)))
            counter += 1
        heapq.heapify(heap)
        results: list[tuple[tuple[int, ...], float]] = []
        while heap and len(results) < k:
            neg_est, _, codes = heapq.heappop(heap)
            est = -neg_est
            results.append((codes, est))
            if len(codes) < max_length and est > 0:
                for code in range(self.alphabet.size):
                    ext = codes + (code,)
                    ext_est = self.string_frequency(ext)
                    if ext_est > 0:
                        heapq.heappush(heap, (-ext_est, counter, ext))
                        counter += 1
        return results


def _reference_equation_13_score(hist: np.ndarray) -> float:
    """``‖hist‖₁ − max(hist)`` — Equation (13); 0 for an empty histogram.

    The scalar score :class:`PSTNodeData`, the PST payload the library grew
    one node at a time before its context levels, scores with.
    """
    if hist.size == 0 or hist.sum() == 0:
        return 0.0
    return float(hist.sum() - hist.max())


@dataclass
class PSTNodeData:
    """Context + occurrence positions, ready for splitting."""

    store: TokenStore
    context: tuple[int, ...]
    occurrences: np.ndarray
    occurrence_starts: np.ndarray
    _hist: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def root(store: TokenStore) -> "PSTNodeData":
        """The empty-context root: every prediction position occurs."""
        positions, seq_starts = store.prediction_positions()
        return PSTNodeData(
            store=store,
            context=(),
            occurrences=positions,
            occurrence_starts=seq_starts,
        )

    def hist(self) -> np.ndarray:
        """The exact prediction histogram over ``I ∪ {&}`` (cached)."""
        if self._hist is None:
            next_tokens = self.store.flat[self.occurrences]
            self._hist = np.bincount(
                next_tokens, minlength=self.store.alphabet.hist_size
            )[: self.store.alphabet.hist_size].astype(np.int64)
        return self._hist

    def score(self) -> float:
        """Equation (13) on the exact histogram."""
        return _reference_equation_13_score(self.hist())

    def can_split(self) -> bool:
        """Condition C1: a context starting with ``$`` cannot be extended."""
        return not (
            self.context and self.context[0] == self.store.alphabet.start_code
        )

    def split(self) -> list["PSTNodeData"]:
        """One child per symbol in ``I ∪ {$}`` prepended to the context.

        An occurrence survives into the child whose symbol precedes the
        context; because ``$`` opens every sequence, the children partition
        the parent's occurrences exactly.
        """
        if not self.can_split():
            raise ValueError(
                f"context {self.context!r} starts with $ and cannot be split"
            )
        alphabet = self.store.alphabet
        L = len(self.context)
        prev_positions = self.occurrences - L - 1
        valid = prev_positions >= self.occurrence_starts
        prev_tokens = np.where(
            valid, self.store.flat[np.maximum(prev_positions, 0)], -1
        )
        children = []
        for code in list(range(alphabet.size)) + [alphabet.start_code]:
            mask = prev_tokens == code
            children.append(
                PSTNodeData(
                    store=self.store,
                    context=(code,) + self.context,
                    occurrences=self.occurrences[mask],
                    occurrence_starts=self.occurrence_starts[mask],
                )
            )
        return children


def _reference_release(
    node: TreeNode,
    scale: float | None,
    rng: np.random.Generator,
) -> PSTNode:
    """Recursively build the released PST; ``scale=None`` means no noise."""
    if node.is_leaf:
        hist = node.payload.hist().astype(float)
        if scale is not None:
            hist = hist + rng.laplace(0.0, scale, size=hist.shape)
        return PSTNode(context=node.payload.context, hist=hist)
    children = {}
    total = None
    for child in node.children:
        released = _reference_release(child, scale, rng)
        children[released.context[0]] = released
        total = released.hist if total is None else total + released.hist
    return PSTNode(context=node.payload.context, hist=total, children=children)


def _reference_clamp_nonnegative(node: PSTNode) -> None:
    """Reset negative histogram counts to zero, bottom-up (Section 4.2)."""
    for child in node.children.values():
        _reference_clamp_nonnegative(child)
    np.maximum(node.hist, 0.0, out=node.hist)


def reference_private_pst(
    dataset: SequenceDataset,
    epsilon: float,
    l_top: int,
    theta: float = 0.0,
    rng=None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
) -> PredictionSuffixTree:
    """:func:`repro.sequence.private_pst` as it released before the arrays:
    a recursive node-at-a-time release, then a recursive clamp.

    Grows the same ``privtree`` decomposition from the same RNG stream, so
    a seed gives the release :func:`~repro.sequence.private_pst` writes.
    """
    gen = ensure_rng(rng)
    store = dataset.truncate(l_top)
    beta = dataset.alphabet.pst_fanout
    accountant = PrivacyAccountant(epsilon)
    eps_tree = accountant.spend((1.0 / beta) * epsilon, "pst/structure")
    eps_hist = accountant.spend((1.0 - 1.0 / beta) * epsilon, "pst/leaf histograms")

    params = PrivTreeParams.calibrate(
        eps_tree, fanout=beta, sensitivity=float(l_top), theta=theta
    )
    tree = privtree(PSTNodeData.root(store), params, rng=gen, max_depth=max_depth)

    hist_scale = l_top / eps_hist  # Theorem 4.2
    root = _reference_release(tree.root, hist_scale, gen)
    _reference_clamp_nonnegative(root)
    return PredictionSuffixTree(alphabet=dataset.alphabet, root=root)


def reference_exact_pst(
    dataset: SequenceDataset,
    l_top: int,
    split_threshold: float = 0.0,
    max_context: int = 16,
) -> PredictionSuffixTree:
    """:func:`repro.sequence.exact_pst` with the recursive node release."""
    store = dataset.truncate(l_top)
    root_payload = PSTNodeData.root(store)
    root_node = TreeNode(payload=root_payload, depth=0)
    frontier = [root_node]
    while frontier:
        node = frontier.pop()
        payload = node.payload
        if (
            payload.can_split()
            and len(payload.context) < max_context
            and payload.score() > split_threshold
        ):
            node.children = [
                TreeNode(payload=c, depth=node.depth + 1) for c in payload.split()
            ]
            frontier.extend(node.children)
    gen = ensure_rng(0)  # unused: scale is None
    root = _reference_release(root_node, None, gen)
    return PredictionSuffixTree(alphabet=dataset.alphabet, root=root)


def reference_pst_arrays(pst: PredictionSuffixTree) -> dict[str, np.ndarray]:
    """The node compile: a pointer PST's seven pre-order arrays, by name.

    Children are laid out in prepended-code order.  Returns ``hists``,
    ``totals``, ``cum_probs``, ``parents``, ``depths``, ``edge_symbols``
    and ``child_table``, each derived here, one node at a time.
    """
    alphabet = pst.alphabet
    nodes: list[PSTNode] = []
    parents: list[int] = []
    edges: list[int] = []
    stack: list[tuple[PSTNode, int, int]] = [(pst.root, -1, -1)]
    while stack:
        node, parent, edge = stack.pop()
        index = len(nodes)
        nodes.append(node)
        parents.append(parent)
        edges.append(edge)
        for code, child in sorted(node.children.items(), reverse=True):
            stack.append((child, index, int(code)))
    m = len(nodes)
    hist_size = alphabet.hist_size
    hists = np.empty((m, hist_size))
    for i, node in enumerate(nodes):
        hists[i] = node.hist
    parents_arr = np.asarray(parents, dtype=np.intp)
    edges_arr = np.asarray(edges, dtype=np.int64)
    depths = np.zeros(m, dtype=np.int64)
    for i in range(1, m):
        depths[i] = depths[parents_arr[i]] + 1
    child_table = np.full((m, alphabet.start_code + 1), -1, dtype=np.intp)
    for i in range(1, m):
        child_table[parents_arr[i], edges_arr[i]] = i
    totals = hists.sum(axis=1)
    safe = np.where(totals > 0, totals, 1.0)
    cum_probs = np.cumsum(hists / safe[:, None], axis=1)
    cum_probs[totals <= 0] = 0.0
    return {
        "hists": hists,
        "totals": totals,
        "cum_probs": cum_probs,
        "parents": parents_arr,
        "depths": depths,
        "edge_symbols": edges_arr,
        "child_table": child_table,
    }


def _pst_node_to_dict(node: PSTNode) -> dict[str, Any]:
    out: dict[str, Any] = {
        "context": list(node.context),
        "hist": [float(v) for v in node.hist],
    }
    if node.children:
        out["children"] = {
            str(code): _pst_node_to_dict(child)
            for code, child in sorted(node.children.items())
        }
    return out


def reference_pst_to_dict(pst: PredictionSuffixTree) -> dict[str, Any]:
    """The ``repro.prediction_suffix_tree`` document, one dict per node."""
    return {
        "format": "repro.prediction_suffix_tree",
        "version": 1,
        "alphabet": list(pst.alphabet.symbols),
        "root": _pst_node_to_dict(pst.root),
    }


def _pst_node_from_dict(
    data: dict[str, Any],
    alphabet: Alphabet,
    parent_context: tuple[int, ...] | None = None,
    child_code: int | None = None,
) -> PSTNode:
    try:
        context = tuple(int(c) for c in data["context"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"PST node must carry an integer 'context' list, "
            f"got {data.get('context')!r}"
        ) from None
    if parent_context is not None and context != (child_code,) + parent_context:
        raise ValueError(
            f"child context {context!r} under key {child_code!r} does not "
            f"extend its parent context {parent_context!r}"
        )
    try:
        hist = np.asarray([float(v) for v in data["hist"]], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"PST node {context!r} must carry a numeric 'hist' list, "
            f"got {data.get('hist')!r}"
        ) from None
    if hist.shape != (alphabet.hist_size,):
        raise ValueError(
            f"PST node {context!r} histogram has {hist.size} entries; the "
            f"alphabet requires {alphabet.hist_size}"
        )
    if not np.all(np.isfinite(hist)):
        raise ValueError(f"non-finite histogram value in PST node {context!r}")
    children = {}
    for raw_code, child in data.get("children", {}).items():
        try:
            code = int(raw_code)
        except (TypeError, ValueError):
            raise ValueError(f"non-integer child key {raw_code!r}") from None
        children[code] = _pst_node_from_dict(child, alphabet, context, code)
    return PSTNode(context=context, hist=hist, children=children)


def reference_pst_from_dict(data: dict[str, Any]) -> PredictionSuffixTree:
    """The ``repro.prediction_suffix_tree`` decoder, recursive and one node
    at a time.

    Raises :class:`ValueError` on the documents
    :func:`repro.sequence.pst_from_dict` rejects, except that a node or
    child map of the wrong JSON type raises what Python raises, and a
    child key outside ``I ∪ {$}`` (or a repeated one) and a non-empty root
    context are accepted.
    """
    if data.get("format") != "repro.prediction_suffix_tree":
        raise ValueError(f"not a PST document: {data.get('format')!r}")
    if data.get("version") != 1:
        raise ValueError(f"unsupported version {data.get('version')!r}")
    try:
        symbols = tuple(str(s) for s in data["alphabet"])
    except (KeyError, TypeError):
        raise ValueError(
            f"PST document must carry an 'alphabet' symbol list, "
            f"got {data.get('alphabet')!r}"
        ) from None
    alphabet = Alphabet(symbols)
    if "root" not in data:
        raise ValueError("PST document has no 'root' node")
    return PredictionSuffixTree(
        alphabet=alphabet, root=_pst_node_from_dict(data["root"], alphabet)
    )


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


def _timed(
    repeats: int,
    optimized: Callable[[], Any],
    reference: Callable[[], Any] | None = None,
) -> tuple[dict[str, float], Any, Any]:
    """Time a case's optimized (and reference) callable ``repeats`` times.

    Each round runs the optimized callable, then the reference, so a swing
    in the host's speed reaches both sides alike.  Returns the case's
    timing fields — each side's median (``optimized_s``, ``reference_s``)
    and interquartile range (``optimized_iqr_s``, ``reference_iqr_s``),
    and ``speedup``, the ratio of the medians — with each side's last
    result (``None`` for a missing reference).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    sides = {"optimized": optimized}
    if reference is not None:
        sides["reference"] = reference
    seconds: dict[str, list[float]] = {side: [] for side in sides}
    last: dict[str, Any] = {}
    for _ in range(repeats):
        for side, fn in sides.items():
            start = time.perf_counter()
            last[side] = fn()
            seconds[side].append(time.perf_counter() - start)
    timing = {}
    for side, samples in seconds.items():
        q1, median, q3 = np.percentile(samples, [25, 50, 75])
        timing[f"{side}_s"] = float(median)
        timing[f"{side}_iqr_s"] = float(q3 - q1)
    if reference is not None:
        timing["speedup"] = timing["reference_s"] / timing["optimized_s"]
    return timing, last.get("optimized"), last.get("reference")


def run_sequence_perf_bench(
    n_sequences: int = 200_000,
    n_synthetic: int = 20_000,
    epsilon: float = 1.0,
    repeats: int = 5,
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
    scoring must match the frozen pointer PST bit-for-bit; batched generation is
    checked distributionally (length-distribution TVD against the scalar
    reference sample).  Returns ``{"config": ..., "cases": ...}``.
    """
    data = msnbclike(n_sequences, rng=rng)
    store = data.truncate(l_top)

    gram, grams, grams_ref = _timed(
        repeats,
        lambda: count_grams(store, n_max),
        lambda: count_grams_reference(store, n_max),
    )
    if grams != grams_ref:
        raise AssertionError("vectorized gram counts deviate from the dict reference")

    # The §6.2 substring workload: count every window, rank by
    # (-count, codes), keep the top candidates.  The optimized path stays
    # array-native end to end; the reference is the dict triple loop plus
    # the Python sort the experiments historically ran.
    def _reference_substring_topk():
        # The pre-optimization path the §6.2 ground truth used to take:
        # dict triple loop + Python sort of the whole table.  Returns the
        # counted table too, so the table-equality check below reuses it
        # instead of paying another multi-second reference pass.
        counts = count_substrings_reference(data, topk_max_length)
        return rank_substring_counts(counts, n_candidates), counts

    substring, ranked, (subs_ref, table_ref) = _timed(
        repeats,
        lambda: top_k_substrings(data, n_candidates, topk_max_length),
        _reference_substring_topk,
    )
    if ranked != subs_ref:
        raise AssertionError(
            "vectorized substring ranking deviates from the dict reference"
        )

    table, subs, _ = _timed(
        repeats, lambda: count_substrings(data, topk_max_length)
    )
    if subs != table_ref:
        raise AssertionError(
            "vectorized substring counts deviate from the dict reference"
        )

    build, flat, _ = _timed(
        repeats, lambda: private_pst(data, epsilon=epsilon, l_top=l_top, rng=rng)
    )
    # The same release as frozen pointer nodes, for the two references.
    pst = reference_pst_from_dict(pst_to_dict(flat))

    candidates = [codes for codes, _ in ranked]
    score, batched_scores, recursive_scores = _timed(
        repeats,
        lambda: flat.frequency_many(candidates),
        lambda: np.array([pst.string_frequency(c) for c in candidates]),
    )
    scale = max(1.0, float(np.abs(recursive_scores).max()))
    score_deviation = float(np.abs(batched_scores - recursive_scores).max())
    if score_deviation > 1e-9 * scale:
        raise AssertionError(
            f"flat engine deviates from the recursive PST by {score_deviation}"
        )

    generate, synthetic, reference_sample = _timed(
        repeats,
        lambda: flat.sample_dataset(n_synthetic, rng=rng + 1, max_length=l_top),
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

    n_tokens = int(store.flat.shape[0] - store.n)  # without $
    return {
        "config": {
            "n_sequences": n_sequences,
            "n_tokens": n_tokens,
            "n_synthetic": n_synthetic,
            "epsilon": epsilon,
            "repeats": repeats,
            "rng": rng,
            "l_top": l_top,
            "n_max": n_max,
            "topk_max_length": topk_max_length,
            "n_candidates": len(candidates),
            "pst_nodes": flat.size,
            "pst_height": flat.height,
        },
        "cases": {
            "gram_counting": {
                "workload": f"n-grams up to n = {n_max} over {n_tokens:,} tokens",
                **gram,
            },
            "substring_counting": {
                "workload": "count + rank top candidates (exact_top_k)",
                **substring,
            },
            "substring_count_table": {
                "workload": "full tuple-keyed Counter (dict materialization)",
                **table,
            },
            "pst_build_release": {
                "workload": f"private PST over {n_sequences:,} sequences",
                **build,
            },
            "topk_scoring": {
                "workload": f"{len(candidates):,} candidate frequencies on the PST",
                **score,
                "max_abs_deviation": score_deviation,
            },
            "pst_generation": {
                "workload": f"{n_synthetic:,} synthetic sequences from the PST",
                **generate,
                "length_tvd_vs_reference": generation_tvd,
            },
        },
    }


def run_service_perf_bench(
    synopsis: HistogramTree,
    queries,
    epsilon: float,
    repeats: int = 5,
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
        timing, _, _ = _timed(
            repeats, lambda: service.query_many(release_id, queries)
        )
    return {
        "workload": f"{len(queries):,} cache-hit range counts via SynopsisService",
        **timing,
        "queries_per_s": len(queries) / timing["optimized_s"],
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
    counts = (np.arange(m, dtype=np.float64) * 0.73 + 1.0) % 997.0
    return FlatHistogram(lows, highs, counts, parents)


def _quadtree_depth(n_points: int) -> int:
    """Depth of the largest complete quadtree with at most one node per
    two points: 8 (87,381 nodes) at the default 200k points."""
    depth = 0
    while (4 ** (depth + 2) - 1) // 3 <= n_points // 2:
        depth += 1
    return depth


def run_artifact_cold_load_bench(depth: int = 8, repeats: int = 5) -> dict:
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

        timing, v2_release, v1_flat = _timed(repeats, _load_v2, _load_v1)
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
        **timing,
        "cold_load_ms": timing["optimized_s"] * 1e3,
        "artifact_bytes": n_bytes,
        "json_bytes": json_bytes,
        "bit_identical_to_json": True,
    }


def run_perf_bench(
    n_points: int = 200_000,
    n_queries: int = 1_000,
    band: str = "medium",
    epsilon: float = 1.0,
    repeats: int = 5,
    rng: int = 0,
    n_sequences: int = 200_000,
    n_synthetic: int = 20_000,
) -> dict:
    """Time the optimized vs. reference spatial *and* sequence hot paths.

    Returns a JSON-ready dict: per case, the median and interquartile
    range of ``repeats`` wall times of each side (the two sides run
    alternately), the ratio of the medians, and the max |flat - recursive|
    query deviation (the harness fails loudly if the engines disagree
    beyond 1e-9 relative).  The mixed workload holds ``10 * n_queries``
    queries, and the cold-loaded release scales with ``n_points``, so the
    defaults time a 10k-query workload and an 87k-node release.
    """
    n_mixed_queries = 10 * n_queries
    data = gowallalike(n_points, rng=rng)
    queries = generate_workload(data.domain, band, n_queries, rng=rng + 1)

    # The build is the fit's own output, the flat arrays.  The reference
    # builds nodes; they are compiled to arrays untimed, and its recursive
    # traversal below walks them.
    build, flat, reference = _timed(
        repeats,
        lambda: _privtree_flat(data, epsilon=epsilon, rng=rng),
        lambda: reference_privtree_nodes(data, epsilon=epsilon, rng=rng),
    )
    build_s = build["optimized_s"]
    synopsis = flat.to_tree()
    expected = reference_flat_from_nodes(reference)
    for name in ("lows", "highs", "counts", "parents", "child_offsets", "child_index"):
        if not np.array_equal(getattr(flat, name), getattr(expected, name)):
            raise AssertionError(
                f"optimized and reference builds diverged in {name}: "
                f"size {flat.size} vs {expected.size}"
            )

    # Telemetry overhead.  The disabled-mode claim ("span sites add at
    # most a few percent to privtree_build") is asserted from first
    # principles: the measured per-call cost of the no-op span path
    # times the number of telemetry call sites one build actually hits,
    # as a fraction of the build time.  That product is deterministic
    # where an A/B wall-clock comparison of two identical builds is not
    # (run-to-run jitter on a busy CI box dwarfs a 5% signal).  The
    # disabled-mode build is privtree_build's optimized side, timed once
    # above; the enabled-mode build is timed too — recorded, never gated.
    from .. import telemetry as _telemetry

    n_noop_calls = 200_000
    noop_start = time.perf_counter()
    for _ in range(n_noop_calls):
        with _telemetry.span("bench.noop", depth=0, frontier=0):
            pass
    noop_span_s = (time.perf_counter() - noop_start) / n_noop_calls
    tracer = _telemetry.enable()
    try:
        enabled, _, _ = _timed(
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
    sites_per_build = spans_recorded / repeats
    overhead_disabled = (noop_span_s * sites_per_build) / build_s
    if overhead_disabled > 0.05:
        raise AssertionError(
            f"disabled telemetry costs {overhead_disabled * 100:.2f}% of a "
            f"privtree build ({sites_per_build:.0f} no-op sites at "
            f"{noop_span_s * 1e9:.0f}ns each over {build_s:.4f}s); the no-op "
            "span path must stay within 5%"
        )

    traversal, batched, recursive = _timed(
        repeats,
        lambda: flat.range_count_many(queries),
        lambda: reference_workload_answers(reference, queries),
    )
    scale = max(1.0, float(np.abs(recursive).max()))
    max_deviation = float(np.abs(batched - recursive).max())
    if max_deviation > 1e-9 * scale:
        raise AssertionError(
            f"flat engine deviates from the recursive traversal by {max_deviation}"
        )

    generation, _, _ = _timed(
        repeats, lambda: generate_workload(data.domain, band, n_queries, rng=rng + 1)
    )

    # The federated fit: K in-process blinded collectors, secure count
    # aggregation, coordinator noise.  Must rebuild the exact centralized
    # synopsis bit-for-bit under the same seed — the fit's defining
    # guarantee — so the case both times the protocol overhead and guards
    # the identity in CI.
    from ..spatial.serialize import tree_to_dict

    n_shards = 4
    federated, fed_tree, _ = _timed(
        repeats,
        lambda: federated_privtree_histogram(
            shard_dataset(data, n_shards), epsilon=epsilon, rng=rng
        ),
    )
    if tree_to_dict(fed_tree) != tree_to_dict(synopsis):
        raise AssertionError(
            "federated fit deviates from the centralized release"
        )

    service_case = run_service_perf_bench(
        synopsis, queries, epsilon=epsilon, repeats=repeats
    )
    artifact_case = run_artifact_cold_load_bench(
        depth=_quadtree_depth(n_points), repeats=repeats
    )

    # The typed query surface: a mixed range/point/marginal workload
    # through one `release.answer` dispatch vs. the scalar `query` loop
    # over the same compiled boxes — answers must agree bit-for-bit.
    from ..api.releases import SpatialTreeRelease

    release = SpatialTreeRelease(synopsis, method="privtree", epsilon_spent=epsilon)
    mixed = build_mixed_workload(data.domain, queries, n_mixed_queries, rng + 2)
    answering, typed_answers, scalar_answers = _timed(
        repeats,
        lambda: release.answer(mixed),
        lambda: scalar_query_loop(release, mixed),
    )
    if not np.array_equal(typed_answers, scalar_answers):
        raise AssertionError(
            "typed workload answers deviate from the scalar query loop"
        )

    # Publishing: the fit's document written from the flat arrays vs. the
    # frozen dict-then-json.dumps path, which must give the same bytes.
    publishing, json_text, reference_text = _timed(
        repeats, release.to_json_text, lambda: reference_release_json(release)
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
            # Not platform.platform(): it runs `uname -p` in a subprocess,
            # and the bench starts no process.
            "platform": "-".join(
                (platform.system(), platform.release(), platform.machine())
            ),
        },
        "cases": {
            "privtree_build": {
                "workload": f"{n_points:,}-point PrivTree fit",
                **build,
            },
            "workload_queries": {
                "workload": f"{n_queries:,} {band} range counts",
                **traversal,
                "max_abs_deviation": max_deviation,
            },
            "workload_generation": {
                "workload": f"{n_queries:,} {band} range-count boxes",
                **generation,
            },
            "federated_fit": {
                "workload": (
                    f"{n_shards} blinded shard collectors -> secure aggregation"
                ),
                **federated,
                "centralized_s": build_s,
                "overhead_vs_centralized": federated["optimized_s"] / build_s,
                "bit_identical_to_centralized": True,
            },
            "workload_answering": {
                "workload": (
                    f"{n_mixed_queries:,} mixed range/point/marginal queries"
                ),
                **answering,
                "n_answers": int(typed_answers.shape[0]),
            },
            "release_json": {
                "workload": f"{synopsis.size:,}-node fitted release -> JSON text",
                **publishing,
                "json_bytes": len(json_text.encode("utf-8")),
                "bytes_identical_to_reference": True,
            },
            "service_cached_queries": service_case,
            "artifact_cold_load": artifact_case,
            "telemetry_overhead": {
                "workload": "privtree build: tracing disabled vs enabled",
                "optimized_s": build_s,
                "optimized_iqr_s": build["optimized_iqr_s"],
                "build_s": build_s,
                "noop_span_s": noop_span_s,
                "sites_per_build": sites_per_build,
                "overhead_disabled": overhead_disabled,
                "enabled_s": enabled["optimized_s"],
                "overhead_enabled": enabled["optimized_s"] / build_s,
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
    "service_cached_queries",
    "artifact_cold_load",
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
#: ``workload_answering``'s scalar loop runs the same flat engine and
#: ``artifact_cold_load``'s JSON load the same store code, so a slowdown
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


def _ms(seconds: float) -> str:
    """Milliseconds to about three significant figures."""
    ms = seconds * 1e3
    decimals = 0 if ms >= 100 else 1 if ms >= 10 else 2
    return f"{ms:,.{decimals}f}"


def bench_markdown_table(document: dict) -> str:
    """The README's Performance table, one row per case of a bench document.

    Columns: the case, its workload, the reference's median, the
    optimized median ± its interquartile range, and the ratio of the
    medians.  A case without a reference shows a dash in both the
    reference and the speedup column.
    """
    lines = [
        "| case | workload | reference | median ± IQR | speedup |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, case in sorted(document["cases"].items()):
        median = f"{_ms(case['optimized_s'])} ± {_ms(case['optimized_iqr_s'])} ms"
        reference, speedup = "—", "—"
        if "reference_s" in case:
            reference = f"{_ms(case['reference_s'])} ms"
            speedup = f"{case['speedup']:.1f}×"
        lines.append(
            f"| `{name}` | {case['workload']} | {reference} | {median} | {speedup} |"
        )
    return "\n".join(lines)


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
