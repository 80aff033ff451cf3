"""Tests for the EM top-k baseline."""

import numpy as np
import pytest

from repro.baselines import em_top_k
from repro.sequence import Alphabet, SequenceDataset, count_substrings, exact_top_k


@pytest.fixture
def alpha() -> Alphabet:
    return Alphabet(("A", "B", "C"))


@pytest.fixture
def skewed_data(alpha) -> SequenceDataset:
    """A dominates B dominates C, strongly."""
    gen = np.random.default_rng(2)
    seqs = []
    for _ in range(1000):
        length = int(gen.integers(2, 8))
        seq = gen.choice(3, size=length, p=[0.7, 0.25, 0.05])
        seqs.append(seq.astype(np.int64))
    return SequenceDataset.from_sequences(alpha, tuple(seqs), name="em-test")


class TestEmTopK:
    def test_returns_k_distinct_strings(self, skewed_data):
        out = em_top_k(skewed_data, epsilon=1.0, l_top=10, k=5, rng=0)
        assert len(out) == 5
        assert len(set(out)) == 5

    def test_high_epsilon_finds_true_top1(self, skewed_data):
        out = em_top_k(skewed_data, epsilon=500.0, l_top=10, k=1, rng=1)
        assert out[0] == exact_top_k(skewed_data, k=1)[0]

    def test_precision_improves_with_epsilon(self, skewed_data):
        exact = set(exact_top_k(skewed_data, k=10))

        def precision(eps: float) -> float:
            hits = [
                len(exact & set(em_top_k(skewed_data, eps, 10, 10, rng=s))) / 10
                for s in range(10)
            ]
            return float(np.mean(hits))

        assert precision(100.0) >= precision(0.05)

    def test_deterministic_given_seed(self, skewed_data):
        a = em_top_k(skewed_data, epsilon=1.0, l_top=10, k=4, rng=9)
        b = em_top_k(skewed_data, epsilon=1.0, l_top=10, k=4, rng=9)
        assert a == b

    def test_candidates_grow_from_selections(self, skewed_data):
        # With k > |I| the answer must include some multi-symbol string.
        out = em_top_k(skewed_data, epsilon=100.0, l_top=10, k=6, rng=3)
        assert any(len(s) > 1 for s in out)

    def test_counts_the_clipped_corpus(self, skewed_data):
        # l_top = 4 cuts most sequences, so the counts differ from the
        # unclipped corpus; the precomputed table must give the same draws.
        counts = count_substrings(skewed_data.clip(4), 6)
        assert counts != count_substrings(skewed_data, 6)
        for seed in range(3):
            assert em_top_k(skewed_data, 2.0, 4, 8, max_length=6, rng=seed) == em_top_k(
                skewed_data, 2.0, 4, 8, max_length=6, rng=seed, substring_counts=counts
            )

    def test_invalid_parameters(self, skewed_data):
        with pytest.raises(ValueError):
            em_top_k(skewed_data, epsilon=0.0, l_top=10, k=3)
        with pytest.raises(ValueError):
            em_top_k(skewed_data, epsilon=1.0, l_top=10, k=0)
