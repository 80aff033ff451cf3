"""Tests for the PST context levels (Equation 13 score, position labels).

:class:`ContextLevel` holds one depth's contexts and :class:`PositionLabels`
each prediction position's node in it.  The scan test holds every level's
histograms to a direct count of the tokens that follow each context.
"""

import numpy as np
import pytest

from repro.sequence import Alphabet, SequenceDataset, equation_13_score
from repro.sequence.private_pst import ContextLevel, PositionLabels


@pytest.fixture
def alpha() -> Alphabet:
    return Alphabet(("A", "B"))


@pytest.fixture
def store(alpha):
    data = SequenceDataset.from_symbols(
        alpha, [["B"], ["A", "B"], ["A", "A", "B"], ["A", "A", "A", "B"]]
    )
    return data.truncate(l_top=10)


def grow(store):
    """The root level of ``store`` and its position labels."""
    return ContextLevel.root(store.alphabet), PositionLabels(store)


def split(level: ContextLevel, labels: PositionLabels, index) -> ContextLevel:
    """Split ``level`` at ``index`` and move the labels down."""
    index = np.asarray(index, dtype=np.intp)
    next_level = level.split(index)
    labels.descend(level, index, next_level)
    return next_level


class TestEquation13:
    def test_definition(self):
        assert equation_13_score(np.array([6, 4, 4])) == 8.0

    def test_zero_for_empty(self):
        assert equation_13_score(np.array([0, 0, 0])) == 0.0
        assert equation_13_score(np.array([])) == 0.0

    def test_small_when_dominated(self):
        # Low entropy: one count dominates -> small score (condition C3).
        assert equation_13_score(np.array([100, 1, 0])) == 1.0

    def test_small_when_small_magnitude(self):
        # Small magnitude -> small score (condition C2).
        assert equation_13_score(np.array([1, 1, 1])) == 2.0

    def test_scores_the_last_axis(self):
        hists = np.array([[6, 4, 4], [0, 0, 0], [100, 1, 0]])
        assert equation_13_score(hists).tolist() == [8.0, 0.0, 1.0]


class TestContextLevel:
    def test_root_score_fig3(self, store):
        level, labels = grow(store)
        assert labels.scores(level, np.arange(1)).tolist() == [8.0]  # 14 - 6

    def test_root_hist(self, store):
        _, labels = grow(store)
        np.testing.assert_array_equal(labels.hists[0], [[6, 4, 4]])

    def test_split_produces_fanout_children(self, store, alpha):
        level, labels = grow(store)
        children = split(level, labels, [0])
        assert children.size == alpha.pst_fanout  # |I| + 1 = 3
        assert children.edges.tolist() == [0, 1, alpha.start_code]

    def test_children_partition_occurrences(self, store):
        level, labels = grow(store)
        split(level, labels, [0])
        np.testing.assert_array_equal(labels.hists[1].sum(axis=0), labels.hists[0][0])

    def test_monotone_score_lemma_4_1(self, store):
        # Lemma 4.1: c(child) <= c(parent), over every split of four levels.
        level, labels = grow(store)
        for _ in range(4):
            index = np.flatnonzero(level.splittable())
            parent = equation_13_score(labels.hists[level.depth][index])
            level = split(level, labels, index)
            child = equation_13_score(labels.hists[level.depth])
            assert (child.reshape(index.size, level.fanout) <= parent[:, None]).all()

    def test_start_prefixed_cannot_split(self, store, alpha):
        # Condition C1: only the context that starts with $ stops.
        level, labels = grow(store)
        children = split(level, labels, [0])
        assert children.splittable().tolist() == [True, True, False]

    def test_truncated_store_counts(self, alpha):
        # $AAAB& truncated at l_top=3 becomes $AAA: the prediction
        # positions are the three As.
        data = SequenceDataset.from_symbols(alpha, [["A", "A", "A", "B"]])
        _, labels = grow(data.truncate(3))
        np.testing.assert_array_equal(labels.hists[0], [[3, 0, 0]])

    def test_histograms_count_the_tokens_after_each_context(self):
        """Every level's histograms equal a scan of the store for each
        node's context, with contexts prepended in ``symbols`` order."""
        data = SequenceDataset.from_sequences(
            Alphabet.of_size(3),
            tuple(
                np.random.default_rng(seed).integers(0, 3, size=seed % 7)
                for seed in range(40)
            ),
        )
        store = data.truncate(5)
        level, labels = grow(store)
        contexts = [()]
        sequences = [store.sequence_tokens(i).tolist() for i in range(store.n)]
        for _ in range(4):
            expected = np.zeros((len(contexts), store.alphabet.hist_size), dtype=np.int64)
            for row, context in enumerate(contexts):
                for tokens in sequences:
                    for p in range(max(len(context), 1), len(tokens)):
                        if tuple(tokens[p - len(context) : p]) == context:
                            expected[row, tokens[p]] += 1
            np.testing.assert_array_equal(labels.hists[level.depth], expected)
            index = np.flatnonzero(level.splittable())
            contexts = [
                (int(symbol),) + contexts[i] for i in index for symbol in level.symbols
            ]
            level = split(level, labels, index)
            assert [context[0] for context in contexts] == level.edges.tolist()
