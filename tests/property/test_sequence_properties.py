"""Property-based tests for sequence structures and scores."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sequence import (
    Alphabet,
    SequenceDataset,
    TokenStore,
    equation_13_score,
    length_distribution,
    total_variation_distance,
)
from repro.sequence.private_pst import ContextLevel, PositionLabels


@st.composite
def datasets(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    alphabet = Alphabet.of_size(size)
    n = draw(st.integers(min_value=1, max_value=20))
    seqs = [
        np.asarray(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=size - 1),
                    min_size=0,
                    max_size=12,
                )
            ),
            dtype=np.int64,
        )
        for _ in range(n)
    ]
    return SequenceDataset.from_sequences(alphabet, tuple(seqs))


def _grow(store: TokenStore) -> tuple[ContextLevel, PositionLabels]:
    return ContextLevel.root(store.alphabet), PositionLabels(store)


def _split_all(level: ContextLevel, labels: PositionLabels) -> ContextLevel:
    """Split every splittable node of ``level`` and move the labels down."""
    index = np.flatnonzero(level.splittable())
    next_level = level.split(index)
    labels.descend(level, index, next_level)
    return next_level


class TestTruncationProperties:
    @given(data=datasets(), l_top=st.integers(min_value=1, max_value=15))
    @settings(max_examples=60)
    def test_token_lengths_bounded(self, data, l_top):
        store = data.truncate(l_top)
        assert (store.token_lengths() <= l_top).all()

    @given(data=datasets(), l_top=st.integers(min_value=1, max_value=15))
    @settings(max_examples=60)
    def test_prediction_positions_match_token_lengths(self, data, l_top):
        store = data.truncate(l_top)
        positions, _ = store.prediction_positions()
        assert len(positions) == int(store.token_lengths().sum())

    @given(data=datasets(), l_top=st.integers(min_value=1, max_value=15))
    @settings(max_examples=40)
    def test_child_histograms_sum_to_the_parent(self, data, l_top):
        root, labels = _grow(data.truncate(l_top))
        _split_all(root, labels)
        np.testing.assert_array_equal(labels.hists[1].sum(axis=0), labels.hists[0][0])

    @given(data=datasets(), l_top=st.integers(min_value=1, max_value=15))
    @settings(max_examples=30)
    def test_lemma_4_1_monotone_scores_two_levels(self, data, l_top):
        root, labels = _grow(data.truncate(l_top))
        level = root
        for _ in range(2):
            index = np.flatnonzero(level.splittable())
            parent = equation_13_score(labels.hists[level.depth][index])
            level = _split_all(level, labels)
            child = equation_13_score(labels.hists[level.depth])
            assert (child.reshape(index.size, level.fanout) <= parent[:, None] + 1e-12).all()


def _reference_build(dataset: SequenceDataset, l_top: int) -> tuple:
    """The per-sequence loop ``TokenStore.build`` ran before it was
    whole-array: ``(flat, starts, ends, n_truncated)``."""
    alphabet = dataset.alphabet
    start, end = alphabet.start_code, alphabet.end_code
    pieces: list[np.ndarray] = []
    starts: list[int] = []
    ends: list[int] = []
    offset = 0
    n_truncated = 0
    for seq in dataset.sequences:
        if len(seq) >= l_top:  # token length would exceed l_top
            tokens = np.concatenate([[start], seq[:l_top]])
            n_truncated += 1
        else:
            tokens = np.concatenate([[start], seq, [end]])
        pieces.append(tokens)
        starts.append(offset)
        offset += len(tokens)
        ends.append(offset)
    flat = (
        np.concatenate(pieces)
        if pieces
        else np.empty(0, dtype=np.int64)
    )
    return (
        flat.astype(np.int64),
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
        n_truncated,
    )


@st.composite
def bounded_corpora(draw):
    """``(dataset, l_top)`` with sequence lengths from 0 to ``l_top + 2``."""
    size = draw(st.integers(min_value=1, max_value=4))
    l_top = draw(st.integers(min_value=1, max_value=6))
    symbols = st.integers(min_value=0, max_value=size - 1)
    seqs = draw(st.lists(st.lists(symbols, max_size=l_top + 2), max_size=12))
    return _corpus(size, seqs), l_top


def _corpus(size: int, seqs: list[list[int]]) -> SequenceDataset:
    return SequenceDataset.from_sequences(
        Alphabet.of_size(size),
        tuple(np.asarray(seq, dtype=np.int64) for seq in seqs),
    )


class TestTokenStoreBuild:
    """The whole-array truncation gives what the per-sequence loop gave."""

    @given(case=bounded_corpora())
    @example(case=(_corpus(2, []), 1))  # an empty corpus
    @example(case=(_corpus(2, [[], [], []]), 3))  # empty sequences only
    @example(case=(_corpus(2, [[0], [], [1, 0]]), 1))  # l_top = 1
    # Lengths l_top - 1, l_top and l_top + 1.
    @example(case=(_corpus(3, [[0, 1], [2, 0, 1], [1, 1, 2, 0], []]), 3))
    @settings(max_examples=80)
    def test_matches_the_loop(self, case):
        data, l_top = case
        store = TokenStore.build(data, l_top)
        flat, starts, ends, n_truncated = _reference_build(data, l_top)
        for got, want in ((store.flat, flat), (store.starts, starts), (store.ends, ends)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert store.n_truncated == n_truncated


@st.composite
def ragged(draw):
    """``(alphabet, seqs)``: ragged code lists, empty sequences included."""
    size = draw(st.integers(min_value=1, max_value=4))
    symbols = st.integers(min_value=0, max_value=size - 1)
    return Alphabet.of_size(size), draw(st.lists(st.lists(symbols, max_size=9), max_size=15))


class TestFlatCorpus:
    """The flat corpus keeps the ragged input and cuts it like a slice."""

    @given(case=ragged())
    @settings(max_examples=80)
    def test_from_sequences_round_trips(self, case):
        alphabet, seqs = case
        assert [s.tolist() for s in SequenceDataset.from_sequences(alphabet, seqs).sequences] == seqs

    @given(case=ragged(), l_top=st.integers(min_value=1, max_value=10))
    @settings(max_examples=80)
    def test_clip_keeps_the_first_l_top_symbols(self, case, l_top):
        alphabet, seqs = case
        clipped = SequenceDataset.from_sequences(alphabet, seqs).clip(l_top)
        assert [s.tolist() for s in clipped.sequences] == [s[:l_top] for s in seqs]


class TestEquation13Properties:
    @given(
        hist=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=20)
    )
    def test_score_bounds(self, hist):
        arr = np.asarray(hist)
        score = equation_13_score(arr)
        assert 0.0 <= score <= arr.sum()

    @given(
        hist=st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=20),
        idx=st.integers(min_value=0, max_value=19),
        bump=st.integers(min_value=1, max_value=100),
    )
    def test_score_changes_by_at_most_bump(self, hist, idx, bump):
        # The sensitivity fact behind Theorem 4.1: adding occurrences to one
        # histogram cell moves the score by at most that many units.
        arr = np.asarray(hist)
        bumped = arr.copy()
        bumped[idx % len(arr)] += bump
        assert abs(equation_13_score(bumped) - equation_13_score(arr)) <= bump


class TestMetricsProperties:
    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=200),
        cap=st.integers(min_value=1, max_value=50),
    )
    def test_length_distribution_is_distribution(self, lengths, cap):
        dist = length_distribution(lengths, max_length=cap)
        assert np.isclose(dist.sum(), 1.0)
        assert (dist >= 0).all()
        assert dist.shape == (cap + 1,)

    @given(
        a=st.lists(st.floats(min_value=0.01, max_value=10), min_size=2, max_size=20),
        b=st.lists(st.floats(min_value=0.01, max_value=10), min_size=2, max_size=20),
    )
    @settings(max_examples=60)
    def test_tvd_is_a_metric_on_matching_support(self, a, b):
        if len(a) != len(b):
            return
        p = np.asarray(a) / np.sum(a)
        q = np.asarray(b) / np.sum(b)
        tvd = total_variation_distance(p, q)
        assert 0.0 <= tvd <= 1.0 + 1e-12
        assert np.isclose(total_variation_distance(p, p), 0.0)
        assert np.isclose(tvd, total_variation_distance(q, p))
