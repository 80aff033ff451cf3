"""`Release.answer` correctness across every registered method.

For each of the 10 registry methods: every supported query type answers
through one vectorized ``answer`` dispatch, bit-identical to the scalar
reference (the per-box ``query`` loop for spatial releases; the frozen
pointer PST's walks, or the n-gram model's, for sequence releases).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.perf import reference_pst_from_dict
from repro.queries import (
    Marginal1D,
    NextSymbolDistribution,
    PointCount,
    PrefixCount,
    QueryValidationError,
    RangeCount,
    StringFrequency,
    UnsupportedQueryTypeError,
    Workload,
)

from repro.sequence import pst_to_dict

from .conftest import FAST_PARAMS, example_queries, fitted_release

SPATIAL_METHODS = sorted(n for n, (k, _) in FAST_PARAMS.items() if k == "spatial")
SEQUENCE_METHODS = sorted(n for n, (k, _) in FAST_PARAMS.items() if k == "sequence")


def mixed_workload(release):
    """Every supported query type of ``release``, interleaved."""
    queries = []
    for query_cls in release.supported_query_types():
        queries.extend(
            example_queries(
                query_cls,
                release.query_domain,
                include_anchored=(release.kind == "sequence-pst"),
            )
        )
    # Interleave so homogeneous grouping inside answer() is exercised.
    queries = queries[::2] + queries[1::2]
    return Workload.of(queries)


def pointer_pst(release):
    """The release as frozen pointer nodes, one node at a time."""
    return reference_pst_from_dict(pst_to_dict(release.flat()))


def reference_prefix_count(model, codes):
    """The anchored Equation (12) chain via the recursive PST walks."""
    start = model.alphabet.start_code
    node = model.lookup([start])
    answer = float(node.hist[codes[0]])
    context = [start, codes[0]]
    for code in codes[1:]:
        if answer <= 0:
            return 0.0
        node = model.lookup(context)
        total = node.hist.sum()
        if total <= 0:
            return 0.0
        answer = answer * float(node.hist[code] / total)
        context.append(code)
    return max(answer, 0.0)


def reference_next_symbol(model, query):
    """The conditional row via the recursive PST lookup."""
    context = list(query.context)
    if query.anchored:
        context = [model.alphabet.start_code] + context
    node = model.lookup(context)
    total = node.hist.sum()
    if total <= 0:
        return np.zeros_like(np.asarray(node.hist, dtype=float))
    return np.asarray(node.hist, dtype=float) / total


class TestSpatialAnswer:
    @pytest.mark.parametrize("name", SPATIAL_METHODS)
    def test_answer_matches_scalar_query_loop(self, name, uniform_2d):
        release = fitted_release(name, uniform_2d, None)
        workload = mixed_workload(release)
        flat = release.answer(workload)
        assert flat.dtype == np.float64
        domain = release.query_domain
        scalar = np.array(
            [release.query(box) for q in workload for box in q.to_boxes(domain)]
        )
        assert np.array_equal(flat, scalar)
        assert flat.shape[0] == workload.result_size(domain)

    @pytest.mark.parametrize("name", SPATIAL_METHODS)
    def test_ranges_workload_matches_query_many(self, name, uniform_2d):
        """The documented migration: answer(Workload.ranges(boxes)) is
        bit-identical to the legacy query_many(boxes)."""
        release = fitted_release(name, uniform_2d, None)
        boxes = [q.box for q in example_queries(RangeCount, release.query_domain)]
        assert np.array_equal(
            release.answer(Workload.ranges(boxes)), release.query_many(boxes)
        )

    def test_marginal_bins_sum_to_full_range(self, uniform_2d):
        """Adjacent marginal bins partition their slab: the bin answers sum
        to the slab's range count (same piecewise-uniform geometry)."""
        from repro.domains import Box

        release = fitted_release("privtree", uniform_2d, None)
        marginal = Marginal1D.regular(axis=0, n_bins=8, low=0.2, high=0.8)
        bins = release.answer(Workload.of([marginal]))
        whole = release.query(Box((0.2, 0.0), (0.8, 1.0)))
        assert bins.sum() == pytest.approx(whole, rel=1e-9)

    def test_point_count_equals_probe_range(self, uniform_2d):
        release = fitted_release("privtree", uniform_2d, None)
        query = PointCount(point=(0.3, 0.7))
        probe = query.to_boxes(release.query_domain)[0]
        assert release.answer(Workload.of([query]))[0] == release.query(probe)

    def test_sequence_queries_rejected_with_index(self, uniform_2d):
        release = fitted_release("ug", uniform_2d, None)
        workload = Workload.of(
            [
                RangeCount(low=(0.0, 0.0), high=(1.0, 1.0)),
                StringFrequency(codes=(0,)),
            ]
        )
        with pytest.raises(UnsupportedQueryTypeError, match="workload query 1") as exc:
            release.answer(workload)
        assert exc.value.index == 1

    def test_validation_failure_reports_index(self, uniform_2d):
        release = fitted_release("privtree", uniform_2d, None)
        workload = Workload.of(
            [
                RangeCount(low=(0.0, 0.0), high=(1.0, 1.0)),
                PointCount(point=(7.0, 7.0)),  # outside the unit domain
            ]
        )
        with pytest.raises(QueryValidationError, match="workload query 1") as exc:
            release.answer(workload)
        assert exc.value.index == 1


class TestSequenceAnswer:
    def test_pst_string_frequency_matches_recursive(self, sequence_data):
        release = fitted_release("pst", None, sequence_data)
        queries = example_queries(StringFrequency, release.query_domain)
        flat = release.answer(Workload.of(queries))
        model = pointer_pst(release)
        recursive = np.array([model.string_frequency(q.codes) for q in queries])
        assert np.array_equal(flat, recursive)

    def test_pst_prefix_count_matches_anchored_walk(self, sequence_data):
        release = fitted_release("pst", None, sequence_data)
        queries = example_queries(PrefixCount, release.query_domain)
        flat = release.answer(Workload.of(queries))
        model = pointer_pst(release)
        reference = np.array([reference_prefix_count(model, q.codes) for q in queries])
        assert np.array_equal(flat, reference)

    def test_pst_prefix_counts_bounded_by_sequence_openings(self, sequence_data):
        """Prefix mass can only shrink under extension, and a one-symbol
        prefix count is exactly the $-context histogram entry."""
        release = fitted_release("pst", None, sequence_data)
        model = pointer_pst(release)
        start_node = model.lookup([model.alphabet.start_code])
        one = release.answer(Workload.of([PrefixCount(codes=(0,))]))[0]
        two = release.answer(Workload.of([PrefixCount(codes=(0, 1))]))[0]
        assert one == float(start_node.hist[0])
        assert 0.0 <= two <= one

    def test_pst_next_symbol_matches_recursive(self, sequence_data):
        release = fitted_release("pst", None, sequence_data)
        domain = release.query_domain
        queries = example_queries(NextSymbolDistribution, domain, include_anchored=True)
        workload = Workload.of(queries)
        parts = workload.split(release.answer(workload), domain)
        model = pointer_pst(release)
        for query, part in zip(queries, parts):
            assert np.array_equal(part, reference_next_symbol(model, query))

    def test_pst_mixed_workload_matches_per_type_answers(self, sequence_data):
        release = fitted_release("pst", None, sequence_data)
        workload = mixed_workload(release)
        domain = release.query_domain
        parts = workload.split(release.answer(workload), domain)
        for query, part in zip(workload, parts):
            alone = release.answer(Workload.of([query]))
            assert np.array_equal(part, alone)

    def test_ngram_frequency_and_next_symbol(self, sequence_data):
        release = fitted_release("ngram", None, sequence_data)
        domain = release.query_domain
        freq = example_queries(StringFrequency, domain)
        flat = release.answer(Workload.of(freq))
        assert np.array_equal(
            flat, np.array([release.model.string_frequency(q.codes) for q in freq])
        )
        dist = NextSymbolDistribution(context=(1,))
        row = release.answer(Workload.of([dist]))
        assert np.array_equal(row, release.model.conditional_row((1,)))

    def test_ngram_rejects_prefix_count(self, sequence_data):
        release = fitted_release("ngram", None, sequence_data)
        with pytest.raises(UnsupportedQueryTypeError, match="prefix_count"):
            release.answer(Workload.of([PrefixCount(codes=(0,))]))

    def test_ngram_rejects_anchored_next_symbol_with_index(self, sequence_data):
        """Dropping the $ anchor would silently answer a materially
        different distribution; the n-gram release must refuse instead."""
        release = fitted_release("ngram", None, sequence_data)
        workload = Workload.of(
            [
                NextSymbolDistribution(context=(0,)),
                NextSymbolDistribution(context=(), anchored=True),
            ]
        )
        with pytest.raises(UnsupportedQueryTypeError, match="anchored") as exc:
            release.answer(workload)
        assert exc.value.index == 1

    def test_dollarless_pst_drops_prefix_count(self):
        """A PST released without a $ context (tiny budgets may never
        split on the start sentinel) has no sequence-start statistics:
        PrefixCount must be rejected, not silently answered with
        occurrence counts exceeding n."""
        from repro.api.releases import SequenceRelease
        from repro.sequence import Alphabet, FlatPST

        flat = FlatPST(
            alphabet=Alphabet.of_size(3),
            hists=np.array([[5.0, 3.0, 2.0, 1.0]]),
            parents=np.array([-1]),
            edge_symbols=np.array([-1]),
        )
        release = SequenceRelease(flat, method="pst", epsilon_spent=0.1)
        assert PrefixCount not in release.supported_query_types()
        with pytest.raises(UnsupportedQueryTypeError, match="prefix_count"):
            release.answer(Workload.of([PrefixCount(codes=(0,))]))
        with pytest.raises(ValueError, match="no '\\$' context"):
            release.flat().prefix_frequency_many([(0,)])
        # The other sequence types still answer.
        flat = release.answer(
            Workload.of(
                [StringFrequency(codes=(0,)), NextSymbolDistribution(context=(0,))]
            )
        )
        assert flat.shape[0] == 1 + release.query_domain.hist_size

    @pytest.mark.parametrize("name", SEQUENCE_METHODS)
    def test_strings_workload_matches_query_many(self, name, sequence_data):
        """The documented migration for sequence releases."""
        release = fitted_release(name, None, sequence_data)
        code_lists = [[0], [1, 2], [0, 1, 0]]
        assert np.array_equal(
            release.answer(Workload.strings(code_lists)),
            np.asarray(release.query_many(code_lists), dtype=np.float64),
        )


class TestAnswerInputs:
    def test_accepts_single_query_and_sequences(self, uniform_2d):
        release = fitted_release("privtree", uniform_2d, None)
        query = RangeCount(low=(0.1, 0.1), high=(0.6, 0.6))
        single = release.answer(query)
        as_list = release.answer([query])
        as_workload = release.answer(Workload.of([query]))
        assert np.array_equal(single, as_list)
        assert np.array_equal(single, as_workload)

    def test_empty_workload_answers_empty(self, uniform_2d):
        release = fitted_release("privtree", uniform_2d, None)
        flat = release.answer(Workload.of([]))
        assert flat.shape == (0,)
