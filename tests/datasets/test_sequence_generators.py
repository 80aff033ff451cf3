"""Tests for the synthetic sequence dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.datasets import markov_sequences, mooclike, msnbclike
from repro.sequence import Alphabet


class TestMarkovSequences:
    def test_respects_lengths(self):
        alpha = Alphabet.of_size(3)
        gen = np.random.default_rng(0)
        lengths = np.array([1, 2, 5, 3])
        data = markov_sequences(
            alpha,
            4,
            lengths,
            initial=np.full(3, 1 / 3),
            transition=np.full((3, 3), 1 / 3),
            rng=gen,
            name="t",
        )
        np.testing.assert_array_equal(data.lengths(), lengths)

    def test_transition_structure_respected(self):
        # A chain that can only cycle 0 -> 1 -> 2 -> 0.
        alpha = Alphabet.of_size(3)
        gen = np.random.default_rng(1)
        transition = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        )
        data = markov_sequences(
            alpha,
            50,
            np.full(50, 6),
            initial=np.array([1.0, 0.0, 0.0]),
            transition=transition,
            rng=gen,
            name="cycle",
        )
        for seq in data.sequences:
            np.testing.assert_array_equal(seq, [0, 1, 2, 0, 1, 2])

    def test_shape_validation(self):
        alpha = Alphabet.of_size(2)
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            markov_sequences(
                alpha, 2, np.array([1, 1]), np.ones(3) / 3, np.ones((2, 2)) / 2, gen, "x"
            )
        with pytest.raises(ValueError):
            markov_sequences(
                alpha, 2, np.array([0, 1]), np.ones(2) / 2, np.ones((2, 2)) / 2, gen, "x"
            )


class TestMoocLike:
    def test_table3_shape(self):
        data = mooclike(10_000, rng=0)
        assert data.alphabet.size == 7
        assert data.average_length == pytest.approx(13.46, abs=2.0)

    def test_l_top_50_truncates_a_few_percent(self):
        data = mooclike(10_000, rng=1)
        fraction = data.n_longer_than(50) / data.n
        assert 0.0 < fraction < 0.05

    def test_deterministic(self):
        a = mooclike(500, rng=7)
        b = mooclike(500, rng=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.sequences, b.sequences))


class TestMsnbcLike:
    def test_table3_shape(self):
        data = msnbclike(20_000, rng=0)
        assert data.alphabet.size == 17
        assert data.average_length == pytest.approx(4.75, abs=1.5)

    def test_many_single_page_sessions(self):
        data = msnbclike(20_000, rng=0)
        singles = (data.lengths() == 1).mean()
        assert 0.3 < singles < 0.5

    def test_l_top_20_truncates_a_few_percent(self):
        data = msnbclike(20_000, rng=1)
        fraction = data.n_longer_than(20) / data.n
        assert 0.0 < fraction < 0.10

    def test_markov_not_iid(self):
        # The sticky chain makes symbol repeats far likelier than i.i.d.
        data = msnbclike(20_000, rng=2)
        repeats = 0
        pairs = 0
        for seq in data.sequences:
            if len(seq) > 1:
                repeats += int((seq[1:] == seq[:-1]).sum())
                pairs += len(seq) - 1
        assert repeats / pairs > 2.0 / 17


class TestFrozenCorpora:
    """The generators write ``codes`` and ``offsets`` straight from the
    symbol matrix; the SHA-256 digests were taken from the per-sequence
    build (its concatenated sequences and cumulative lengths)."""

    @pytest.mark.parametrize(
        "make, codes_sha, offsets_sha",
        [
            (
                msnbclike,
                "d070009d476a166107d444be9b7004ccc62d658d4c205ab6cebd2ff599c1c3a9",
                "2c82208d70d6515e2471712e19c0ddd07bee936d836bc744184a130f8a1ef520",
            ),
            (
                mooclike,
                "12e00fcf961119abcb2bbb4a13763a4dd154ad748a28eb4d73715c110edf40c6",
                "9115167c9a0f24790d6c85c43718f3c5b818b803811fdedc060d01acfebce81f",
            ),
        ],
        ids=["msnbclike", "mooclike"],
    )
    def test_codes_and_offsets_byte_for_byte(self, make, codes_sha, offsets_sha):
        data = make(1_000, rng=0)
        assert data.codes.dtype == data.offsets.dtype == np.int64
        assert hashlib.sha256(data.codes.tobytes()).hexdigest() == codes_sha
        assert hashlib.sha256(data.offsets.tobytes()).hexdigest() == offsets_sha
