"""Tests for the N-gram sequence baseline."""

import numpy as np
import pytest

from repro.baselines import ngram_model
from repro.sequence import Alphabet, SequenceDataset


@pytest.fixture
def alpha() -> Alphabet:
    return Alphabet(("A", "B"))


@pytest.fixture
def markov_data(alpha) -> SequenceDataset:
    gen = np.random.default_rng(9)
    seqs = []
    for _ in range(3000):
        seq = [0]
        while len(seq) < 15:
            nxt = int(gen.choice(3, p=[0.6, 0.3, 0.1]))
            if nxt == 2:
                break
            seq.append(nxt)
        seqs.append(np.asarray(seq))
    return SequenceDataset.from_sequences(alpha, tuple(seqs), name="ngram-test")


class TestNgramModel:
    def test_counts_respect_n_max(self, markov_data):
        model = ngram_model(markov_data, epsilon=5.0, l_top=16, n_max=3, rng=0)
        assert all(len(g) <= 3 for g in model.counts)

    def test_grams_never_continue_past_end(self, markov_data, alpha):
        model = ngram_model(markov_data, epsilon=5.0, l_top=16, n_max=3, rng=0)
        for gram in model.counts:
            assert alpha.end_code not in gram[:-1]
            assert alpha.start_code not in gram

    def test_frequent_unigram_retained_at_high_epsilon(self, markov_data, alpha):
        model = ngram_model(markov_data, epsilon=50.0, l_top=16, n_max=3, rng=0)
        assert (alpha.code_of("A"),) in model.counts

    def test_string_frequency_close_to_exact_at_high_epsilon(
        self, markov_data, alpha
    ):
        model = ngram_model(markov_data, epsilon=100.0, l_top=16, n_max=3, rng=1)
        exact_a = sum((np.asarray(s) == 0).sum() for s in markov_data.sequences)
        assert model.string_frequency((0,)) == pytest.approx(exact_a, rel=0.05)

    def test_markov_extension_beyond_n_max(self, markov_data):
        model = ngram_model(markov_data, epsilon=50.0, l_top=16, n_max=2, rng=0)
        # Length-3 strings must still get estimates via chaining.
        est = model.string_frequency((0, 0, 0))
        assert est >= 0.0

    def test_top_k_returns_k(self, markov_data):
        model = ngram_model(markov_data, epsilon=10.0, l_top=16, n_max=3, rng=2)
        assert len(model.top_k_strings(10)) == 10

    def test_sampling_valid_sequences(self, markov_data, alpha):
        model = ngram_model(markov_data, epsilon=10.0, l_top=16, n_max=3, rng=3)
        for seq in model.sample_dataset(20, rng=4):
            assert all(0 <= c < alpha.size for c in seq)
            assert len(seq) <= 16

    def test_low_epsilon_prunes_more(self, markov_data):
        lo = ngram_model(markov_data, epsilon=0.1, l_top=16, n_max=3, rng=5)
        hi = ngram_model(markov_data, epsilon=50.0, l_top=16, n_max=3, rng=5)
        assert len(lo.counts) <= len(hi.counts)

    def test_invalid_parameters(self, markov_data):
        with pytest.raises(ValueError):
            ngram_model(markov_data, epsilon=0.0, l_top=16)
        with pytest.raises(ValueError):
            ngram_model(markov_data, epsilon=1.0, l_top=16, n_max=0)
        model = ngram_model(markov_data, epsilon=1.0, l_top=16, rng=0)
        with pytest.raises(ValueError):
            model.string_frequency(())
        with pytest.raises(ValueError):
            model.top_k_strings(0)
