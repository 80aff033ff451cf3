"""Tests for the Markov-model API over PSTs."""

import math

import numpy as np
import pytest

from repro.sequence import (
    Alphabet,
    MarkovModel,
    SequenceDataset,
    exact_pst,
    private_pst,
)


@pytest.fixture
def alpha() -> Alphabet:
    return Alphabet(("A", "B"))


@pytest.fixture
def fig3(alpha) -> SequenceDataset:
    return SequenceDataset.from_symbols(
        alpha, [["B"], ["A", "B"], ["A", "A", "B"], ["A", "A", "A", "B"]]
    )


@pytest.fixture
def model(fig3) -> MarkovModel:
    pst = exact_pst(fig3, l_top=10, split_threshold=-1.0, max_context=2)
    return MarkovModel(pst=pst, smoothing=1e-9)


class TestPrediction:
    def test_distribution_sums_to_one(self, model):
        dist = model.predict_distribution([0])
        assert dist.sum() == pytest.approx(1.0)
        assert dist.shape == (3,)  # A, B, &

    def test_after_a_distribution(self, model):
        # hist(A) = [3, 3, 0]: P(A|A) = P(B|A) = 1/2 (tiny smoothing).
        dist = model.predict_distribution([0])
        assert dist[0] == pytest.approx(0.5, abs=1e-6)
        assert dist[1] == pytest.approx(0.5, abs=1e-6)

    def test_after_b_always_ends(self, model):
        # hist(B) = [0, 0, 4]: the next "symbol" is & almost surely.
        dist = model.predict_distribution([1])
        assert dist[2] == pytest.approx(1.0, abs=1e-6)

    def test_start_context(self, model, alpha):
        # hist($) = [3, 1, 0].
        dist = model.predict_after_start()
        assert dist[0] == pytest.approx(0.75, abs=1e-6)
        assert dist[1] == pytest.approx(0.25, abs=1e-6)

    def test_start_marker_only_first(self, model, alpha):
        with pytest.raises(ValueError):
            model.predict_distribution([0, alpha.start_code])

    def test_invalid_codes(self, model):
        with pytest.raises(ValueError):
            model.predict_distribution([99])


class TestLikelihood:
    def test_sequence_probability_decomposes(self, model):
        # P($B&) = P(B|$) * P(&|B) = 0.25 * 1.0.
        ll = model.sequence_log_likelihood([1])
        assert ll == pytest.approx(math.log(0.25), abs=1e-5)

    def test_longer_sequence(self, model):
        # P($AB&) = P(A|$) * P(B|$A) * P(&|AB) = .75 * (1/3) * 1.
        ll = model.sequence_log_likelihood([0, 1])
        assert ll == pytest.approx(math.log(0.75 / 3.0), abs=1e-4)

    def test_dataset_likelihood_sums(self, model, fig3):
        total = model.dataset_log_likelihood(fig3)
        per_seq = sum(model.sequence_log_likelihood(s) for s in fig3.sequences)
        assert total == pytest.approx(per_seq)

    def test_rejects_sentinels_in_sequence(self, model, alpha):
        with pytest.raises(ValueError):
            model.sequence_log_likelihood([alpha.end_code])


class TestPerplexity:
    def test_training_data_perplexity_reasonable(self, model, fig3):
        # A binary-alphabet model cannot beat perplexity 1; the Fig-3 data
        # is almost deterministic, so perplexity should be small.
        perplexity = model.perplexity(fig3)
        assert 1.0 <= perplexity < 2.5

    def test_better_model_lower_perplexity(self, fig3):
        sharp = MarkovModel(
            pst=exact_pst(fig3, l_top=10, split_threshold=-1.0, max_context=2),
            smoothing=1e-6,
        )
        flat = MarkovModel(
            pst=exact_pst(fig3, l_top=10, split_threshold=1e9, max_context=2),
            smoothing=1e-6,
        )
        assert sharp.perplexity(fig3) < flat.perplexity(fig3)

    def test_private_model_perplexity_improves_with_epsilon(self):
        gen = np.random.default_rng(3)
        alpha = Alphabet(("A", "B"))
        seqs = tuple(
            np.array([0] * int(gen.integers(1, 6)) + [1], dtype=np.int64)
            for _ in range(2000)
        )
        data = SequenceDataset.from_sequences(alpha, seqs)
        perps = {}
        for eps in (0.05, 8.0):
            vals = [
                MarkovModel(private_pst(data, eps, l_top=10, rng=s)).perplexity(data)
                for s in range(3)
            ]
            perps[eps] = float(np.mean(vals))
        assert perps[8.0] <= perps[0.05]

    def test_empty_dataset_rejected(self, model, alpha):
        with pytest.raises(ValueError):
            model.perplexity(SequenceDataset.from_sequences(alpha, ()))

    def test_alphabet_mismatch_rejected(self, model):
        other = SequenceDataset.from_sequences(
            Alphabet.of_size(5), (np.array([0]),)
        )
        with pytest.raises(ValueError):
            model.dataset_log_likelihood(other)


class TestSmoothing:
    def test_invalid_smoothing(self, model):
        with pytest.raises(ValueError):
            MarkovModel(pst=model.pst, smoothing=0.0)

    def test_smoothing_floors_zero_counts(self, model):
        # After B the histogram has zero A-count; smoothing keeps P(A|B) > 0.
        heavy = MarkovModel(pst=model.pst, smoothing=1.0)
        assert heavy.predict_distribution([1])[0] > 0.0
