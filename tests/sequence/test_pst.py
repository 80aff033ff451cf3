"""Tests for the PST: the Figure 3 worked example and query/sampling logic."""

import numpy as np
import pytest

from repro.sequence import (
    Alphabet,
    FlatPST,
    SequenceDataset,
    exact_pst,
)


@pytest.fixture
def alpha() -> Alphabet:
    return Alphabet(("A", "B"))


@pytest.fixture
def fig3(alpha) -> SequenceDataset:
    """The paper's Figure 3 dataset: $B&, $AB&, $AAB&, $AAAB&."""
    return SequenceDataset.from_symbols(
        alpha, [["B"], ["A", "B"], ["A", "A", "B"], ["A", "A", "A", "B"]]
    )


@pytest.fixture
def fig3_pst(fig3) -> FlatPST:
    return exact_pst(fig3, l_top=10, split_threshold=-1.0, max_context=2)


def row_of(pst, context_symbols, alpha):
    codes = tuple(alpha.code_of(s) for s in context_symbols)
    for row in range(pst.size):
        if pst.node_context(row) == codes:
            return row
    raise AssertionError(f"node {context_symbols} not found")


def hist_of(pst, context_symbols, alpha):
    return pst.hists[row_of(pst, context_symbols, alpha)]


def children_of(pst, row):
    table = pst.child_table[row]
    return table[table >= 0]


def frequency_of(pst, symbols):
    return pst.string_frequency([pst.alphabet.code_of(s) for s in symbols])


class TestFigure3:
    def test_root_histogram(self, fig3_pst, alpha):
        # hist(v1): A:6, B:4, &:4
        np.testing.assert_allclose(hist_of(fig3_pst, [], alpha), [6, 4, 4])

    def test_node_a(self, fig3_pst, alpha):
        # hist(v3) with dom = A: A:3, B:3, &:0
        np.testing.assert_allclose(hist_of(fig3_pst, ["A"], alpha), [3, 3, 0])

    def test_node_aa(self, fig3_pst, alpha):
        # hist(v6) with dom = AA: A:1, B:2, &:0
        np.testing.assert_allclose(hist_of(fig3_pst, ["A", "A"], alpha), [1, 2, 0])

    def test_node_start_a(self, fig3_pst, alpha):
        # hist(v5) with dom = $A: A:2, B:1, &:0
        np.testing.assert_allclose(hist_of(fig3_pst, ["$", "A"], alpha), [2, 1, 0])

    def test_node_ba_empty(self, fig3_pst, alpha):
        # hist(v7) with dom = BA: all zero
        np.testing.assert_allclose(hist_of(fig3_pst, ["B", "A"], alpha), [0, 0, 0])

    def test_node_b(self, fig3_pst, alpha):
        # hist(v4) with dom = B: A:0, B:0, &:4
        np.testing.assert_allclose(hist_of(fig3_pst, ["B"], alpha), [0, 0, 4])

    def test_node_start(self, fig3_pst, alpha):
        # hist(v2) with dom = $: A:3, B:1, &:0
        np.testing.assert_allclose(hist_of(fig3_pst, ["$"], alpha), [3, 1, 0])

    def test_query_ab_worked_example(self, fig3_pst):
        # Section 4.1's worked example: freq(AB) = 6 * 3/6 = 3.
        assert frequency_of(fig3_pst, ["A", "B"]) == pytest.approx(3.0)

    def test_children_partition_occurrences(self, fig3_pst):
        for row in range(fig3_pst.size):
            kids = children_of(fig3_pst, row)
            if kids.size:
                child_sum = fig3_pst.hists[kids].sum(axis=0)
                np.testing.assert_allclose(child_sum, fig3_pst.hists[row])


class TestLookup:
    def test_longest_suffix_match(self, fig3_pst, alpha):
        # Context "AA" should land on the AA node.
        row = fig3_pst.lookup([alpha.code_of("A"), alpha.code_of("A")])
        assert fig3_pst.node_context(row) == (alpha.code_of("A"), alpha.code_of("A"))

    def test_unknown_context_falls_back(self, fig3_pst, alpha):
        # Context "AAA": the tree only reaches depth 2, so the walk stops at
        # the longest recorded suffix AA.
        a = alpha.code_of("A")
        row = fig3_pst.lookup([a, a, a])
        assert fig3_pst.node_context(row) == (a, a)

    def test_empty_context_is_root(self, fig3_pst):
        assert fig3_pst.lookup([]) == 0


class TestQueries:
    def test_single_symbol_frequency(self, fig3_pst):
        assert frequency_of(fig3_pst, ["A"]) == pytest.approx(6.0)
        assert frequency_of(fig3_pst, ["B"]) == pytest.approx(4.0)

    def test_longer_string(self, fig3_pst):
        # freq(AA): 6 * P(A|A) = 6 * 3/6 = 3 (true count: 3).
        assert frequency_of(fig3_pst, ["A", "A"]) == pytest.approx(3.0)

    def test_zero_probability_string(self, fig3_pst, alpha):
        # "BA" never occurs: after B the histogram gives & only.
        assert frequency_of(fig3_pst, ["B", "A"]) == pytest.approx(0.0)

    def test_rejects_bad_queries(self, fig3_pst, alpha):
        with pytest.raises(ValueError):
            fig3_pst.string_frequency([])
        with pytest.raises(ValueError):
            fig3_pst.string_frequency([alpha.end_code])


class TestSampling:
    def test_samples_match_support(self, fig3_pst, alpha):
        # The model was built from A*B sequences; samples should be A*B.
        gen = np.random.default_rng(0)
        for _ in range(50):
            seq = fig3_pst.sample_sequence(gen, max_length=20)
            decoded = "".join(alpha.decode(seq))
            assert set(decoded) <= {"A", "B"}
            if "B" in decoded:
                assert decoded.endswith("B")
                assert "BA" not in decoded and "BB" not in decoded

    def test_max_length_cap(self, fig3_pst):
        seq = fig3_pst.sample_sequence(rng=1, max_length=2)
        assert len(seq) <= 2

    def test_sample_dataset_size(self, fig3_pst):
        assert len(fig3_pst.sample_dataset(7, rng=2)) == 7


class TestTopK:
    def test_top1_is_most_frequent_symbol(self, fig3_pst, alpha):
        top = fig3_pst.top_k_strings(1)
        assert top[0][0] == (alpha.code_of("A"),)

    def test_estimates_non_increasing(self, fig3_pst):
        top = fig3_pst.top_k_strings(6)
        ests = [est for _, est in top]
        assert all(a >= b - 1e-9 for a, b in zip(ests, ests[1:]))

    def test_k_results_returned(self, fig3_pst):
        assert len(fig3_pst.top_k_strings(5)) == 5

    def test_invalid_k(self, fig3_pst):
        with pytest.raises(ValueError):
            fig3_pst.top_k_strings(0)


class TestStructureProperties:
    def test_size_and_height(self, fig3_pst):
        # root + children {A, B, $} + grandchildren of A and B (3 each;
        # the $ child cannot split): 1 + 3 + 6 = 10.
        assert fig3_pst.size == 10
        assert fig3_pst.height == 2

    def test_start_prefixed_nodes_are_leaves(self, fig3_pst, alpha):
        for row in range(fig3_pst.size):
            context = fig3_pst.node_context(row)
            if context and context[0] == alpha.start_code:
                assert children_of(fig3_pst, row).size == 0


def _tree(parents, edges, size=2):
    alphabet = Alphabet.of_size(size)
    m = len(parents)
    return FlatPST(
        alphabet=alphabet,
        hists=np.ones((m, alphabet.hist_size)),
        parents=np.asarray(parents, dtype=np.intp),
        edge_symbols=np.asarray(edges, dtype=np.int64),
    )


class TestConstructor:
    """The one constructor checks the topology and derives the rest."""

    def test_derives_depths_table_totals_and_probabilities(self):
        # Root, its children A (0) and $ (3), and A's child B (1).
        flat = _tree([-1, 0, 1, 0], [-1, 0, 1, 3])
        assert flat.depths.tolist() == [0, 1, 2, 1]
        assert flat.child_table.tolist() == [
            [1, -1, -1, 3],
            [-1, 2, -1, -1],
            [-1, -1, -1, -1],
            [-1, -1, -1, -1],
        ]
        assert flat.totals.tolist() == [3.0] * 4
        np.testing.assert_allclose(flat.cum_probs[0], [1 / 3, 2 / 3, 1.0])
        assert flat.node_context(2) == (1, 0)

    def test_empty_rows_get_zero_probabilities(self):
        alphabet = Alphabet.of_size(1)
        flat = FlatPST(
            alphabet=alphabet,
            hists=np.zeros((1, 2)),
            parents=np.array([-1]),
            edge_symbols=np.array([-1]),
        )
        assert flat.cum_probs.tolist() == [[0.0, 0.0]]
        assert flat.height == 0

    @pytest.mark.parametrize(
        "parents, edges, message",
        [
            ([0], [-1], "root"),
            ([-1, 0], [-1, -1], "I ∪ {\\$}"),
            ([-1, 0], [-1, 2], "I ∪ {\\$}"),  # & is no context symbol
            ([-1, 0], [-1, 4], "I ∪ {\\$}"),
            ([-1, 1], [-1, 0], "precede"),  # a node as its own parent
            ([-1, 2, 0], [-1, 0, 1], "precede"),
            ([-1, 0, 0], [-1, 1, 1], "share"),
        ],
    )
    def test_bad_topology_rejected(self, parents, edges, message):
        with pytest.raises(ValueError, match=message):
            _tree(parents, edges)

    def test_bad_histograms_rejected(self):
        alphabet = Alphabet.of_size(2)
        one = np.array([-1])
        for hists, message in [
            (np.ones((1, 4)), "columns"),
            (np.ones((0, 3)), "non-empty"),
            (np.ones((1, 3), dtype=np.int64), "float"),
            (np.array([[1.0, np.nan, 0.0]]), "finite"),
        ]:
            with pytest.raises(ValueError, match=message):
                FlatPST(alphabet=alphabet, hists=hists, parents=one, edge_symbols=one)
        with pytest.raises(ValueError, match="integers"):
            FlatPST(
                alphabet=alphabet,
                hists=np.ones((1, 3)),
                parents=np.array([-1.0]),
                edge_symbols=one,
            )
