"""Tests for sequence datasets and l_top truncation."""

import numpy as np
import pytest

from repro.sequence import Alphabet, SequenceDataset


@pytest.fixture
def alpha() -> Alphabet:
    return Alphabet(("A", "B"))


@pytest.fixture
def small(alpha) -> SequenceDataset:
    """The Figure 3 dataset: $B&, $AB&, $AAB&, $AAAB&."""
    return SequenceDataset.from_symbols(
        alpha, [["B"], ["A", "B"], ["A", "A", "B"], ["A", "A", "A", "B"]]
    )


class TestSequenceDataset:
    def test_basic_stats(self, small):
        assert small.n == 4
        np.testing.assert_array_equal(small.lengths(), [1, 2, 3, 4])
        assert small.average_length == pytest.approx(2.5)

    def test_n_longer_than(self, small):
        assert small.n_longer_than(3) == 2  # lengths 3 and 4 reach the rule
        assert small.n_longer_than(10) == 0

    def test_length_quantile(self, small):
        # Token lengths (symbols + &) are 2,3,4,5.
        assert small.length_quantile(1.0) == 5

    def test_invalid_codes_rejected(self, alpha):
        with pytest.raises(ValueError):
            SequenceDataset.from_sequences(alpha, (np.array([0, 5]),))
        with pytest.raises(ValueError):
            SequenceDataset.from_sequences(alpha, (np.array([[0], [1]]),))

    def test_empty_sequence_allowed(self, alpha):
        data = SequenceDataset.from_sequences(alpha, (np.array([], dtype=int),))
        assert data.lengths()[0] == 0


class TestFlatConstructor:
    """``SequenceDataset(alphabet, codes, offsets)`` checks whole arrays."""

    def test_sequences_are_offset_slices(self, alpha):
        data = SequenceDataset(alpha, np.array([1, 0, 1, 1]), np.array([0, 1, 1, 4]))
        assert data.n == 3
        np.testing.assert_array_equal(data.lengths(), [1, 0, 3])
        assert [s.tolist() for s in data.sequences] == [[1], [], [0, 1, 1]]
        assert data.codes.dtype == data.offsets.dtype == np.int64

    def test_empty_corpus(self, alpha):
        data = SequenceDataset(alpha, np.empty(0, np.int64), np.zeros(1, np.int64))
        assert data.n == 0 and data.sequences == ()

    @pytest.mark.parametrize(
        "offsets",
        [[1, 2, 3], [0, 2, 1, 3], [0, 2], [0, 1, 4], []],
        ids=["not-from-0", "falling", "short-of-codes", "past-codes", "empty"],
    )
    def test_bad_offsets_refused(self, alpha, offsets):
        with pytest.raises(ValueError, match="offsets"):
            SequenceDataset(alpha, np.array([0, 1, 0]), np.array(offsets, dtype=np.int64))

    @pytest.mark.parametrize(
        "codes",
        [np.array([[0, 1, 0]]), np.array([0.0, 1.0, 0.0])],
        ids=["2-D", "float"],
    )
    def test_bad_codes_refused(self, alpha, codes):
        with pytest.raises(ValueError, match="codes must be 1-D integers"):
            SequenceDataset(alpha, codes, np.array([0, 3]))

    @pytest.mark.parametrize("code", [-1, 2], ids=["below-0", "alphabet-size"])
    def test_codes_outside_the_alphabet_refused(self, alpha, code):
        with pytest.raises(ValueError, match="outside the alphabet"):
            SequenceDataset(alpha, np.array([0, code]), np.array([0, 2]))


class TestClip:
    def test_cuts_to_the_first_l_top_symbols(self, small):
        clipped = small.clip(3)
        assert [s.tolist() for s in clipped.sequences] == [[1], [0, 1], [0, 0, 1], [0, 0, 0]]
        assert clipped.alphabet == small.alphabet and clipped.name == small.name

    @pytest.mark.parametrize("l_top", [0, 2.5, True], ids=repr)
    def test_invalid_l_top(self, small, l_top):
        # A fractional l_top reached the CLI as an IndexError traceback.
        with pytest.raises(ValueError, match="l_top must be an integer >= 1"):
            small.clip(l_top)


class TestTruncation:
    def test_no_truncation_keeps_end_marker(self, small, alpha):
        store = small.truncate(l_top=10)
        assert store.n_truncated == 0
        tokens = store.sequence_tokens(0)
        assert tokens[0] == alpha.start_code
        assert tokens[-1] == alpha.end_code

    def test_truncation_drops_end_marker(self, small, alpha):
        store = small.truncate(l_top=3)
        # Sequences with >= 3 symbols (lengths 3, 4) are truncated.
        assert store.n_truncated == 2
        longest = store.sequence_tokens(3)
        np.testing.assert_array_equal(
            longest, [alpha.start_code, 0, 0, 0]
        )  # $AAA, open-ended

    def test_token_lengths_bounded_by_l_top(self, small):
        store = small.truncate(l_top=3)
        assert (store.token_lengths() <= 3).all()

    def test_prediction_positions_count(self, small):
        # Without truncation: each sequence contributes len(symbols)+1
        # prediction positions (symbols plus &): 2+3+4+5 = 14.
        store = small.truncate(l_top=10)
        positions, starts = store.prediction_positions()
        assert len(positions) == 14
        assert len(starts) == 14

    def test_prediction_positions_have_correct_starts(self, small, alpha):
        store = small.truncate(l_top=10)
        positions, starts = store.prediction_positions()
        for pos, start in zip(positions, starts):
            assert store.flat[start] == alpha.start_code
            assert start <= pos

    def test_invalid_l_top(self, small):
        with pytest.raises(ValueError):
            small.truncate(0)

    def test_empty_dataset(self, alpha):
        data = SequenceDataset.from_sequences(alpha, ())
        store = data.truncate(5)
        assert store.n == 0
        positions, starts = store.prediction_positions()
        assert len(positions) == 0
