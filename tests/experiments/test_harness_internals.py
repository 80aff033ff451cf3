"""Tests for experiment-harness internals that figures silently rely on."""

import numpy as np

from repro.baselines.ngram import count_grams
from repro.sequence import Alphabet, SequenceDataset


class TestTruncatedDataset:
    """The Truncate baseline's view of Figures 6 and 7 is ``clip(l_top)``."""

    def test_lengths_capped(self):
        alpha = Alphabet.of_size(3)
        seqs = tuple(
            np.array([0] * n, dtype=np.int64) for n in (2, 5, 9, 12)
        )
        data = SequenceDataset.from_sequences(alpha, seqs)
        truncated = data.clip(l_top=6)
        assert list(truncated.lengths()) == [2, 5, 6, 6]

    def test_short_sequences_untouched(self):
        alpha = Alphabet.of_size(2)
        seqs = (np.array([0, 1, 0], dtype=np.int64),)
        data = SequenceDataset.from_sequences(alpha, seqs)
        truncated = data.clip(l_top=10)
        np.testing.assert_array_equal(truncated.sequences[0], [0, 1, 0])

    def test_no_sentinels_leak(self):
        alpha = Alphabet.of_size(2)
        seqs = tuple(np.zeros(8, dtype=np.int64) for _ in range(4))
        data = SequenceDataset.from_sequences(alpha, seqs)
        truncated = data.clip(l_top=5)
        for seq in truncated.sequences:
            assert (seq < alpha.size).all()


class TestCountGrams:
    def test_simple_counts(self):
        alpha = Alphabet(("A", "B"))
        data = SequenceDataset.from_symbols(alpha, [["A", "A", "B"]])
        grams = count_grams(data.truncate(10), n_max=2)
        assert grams[(0,)] == 2
        assert grams[(0, 0)] == 1
        assert grams[(0, 1)] == 1
        # Terminal grams include &.
        assert grams[(1, alpha.end_code)] == 1

    def test_end_marker_only_terminal(self):
        alpha = Alphabet(("A",))
        data = SequenceDataset.from_symbols(alpha, [["A", "A"]])
        grams = count_grams(data.truncate(10), n_max=3)
        assert all(alpha.end_code not in g[:-1] for g in grams)

    def test_truncated_sequences_have_no_end_gram(self):
        alpha = Alphabet(("A",))
        data = SequenceDataset.from_symbols(alpha, [["A"] * 10])
        grams = count_grams(data.truncate(4), n_max=2)
        assert (0, alpha.end_code) not in grams
        assert grams[(0,)] == 4

    def test_matches_brute_force_on_random_data(self):
        gen = np.random.default_rng(0)
        alpha = Alphabet.of_size(3)
        seqs = tuple(
            gen.integers(0, 3, size=int(gen.integers(1, 8))).astype(np.int64)
            for _ in range(40)
        )
        data = SequenceDataset.from_sequences(alpha, seqs)
        store = data.truncate(10)
        grams = count_grams(store, n_max=3)
        # Brute force: enumerate windows over [symbols..., &] per sequence.
        brute: dict[tuple[int, ...], int] = {}
        for i in range(store.n):
            body = [int(c) for c in store.sequence_tokens(i)[1:]]
            for start in range(len(body)):
                for length in range(1, min(3, len(body) - start) + 1):
                    gram = tuple(body[start : start + length])
                    if alpha.end_code in gram[:-1]:
                        continue
                    brute[gram] = brute.get(gram, 0) + 1
        assert grams == brute
