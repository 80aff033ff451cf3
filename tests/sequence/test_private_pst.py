"""Tests for the modified PrivTree PST pipeline (Section 4.2)."""

import importlib

import numpy as np
import pytest

from repro.mechanisms import PrivacyAccountant
from repro.sequence import Alphabet, SequenceDataset, exact_pst, private_pst


@pytest.fixture
def alpha() -> Alphabet:
    return Alphabet(("A", "B"))


@pytest.fixture
def markov_data(alpha) -> SequenceDataset:
    """2000 sequences from a 2-state Markov chain with heavy A->A mass."""
    gen = np.random.default_rng(5)
    transition = {0: [0.7, 0.2, 0.1], 1: [0.3, 0.4, 0.3]}  # A, B, stop
    initial = [0.8, 0.2]
    seqs = []
    for _ in range(2000):
        seq = [int(gen.choice(2, p=initial))]
        while len(seq) < 30:
            step = int(gen.choice(3, p=transition[seq[-1]]))
            if step == 2:
                break
            seq.append(step)
        seqs.append(np.asarray(seq))
    return SequenceDataset.from_sequences(alpha, tuple(seqs), name="markov")


class TestPrivatePST:
    def test_histograms_nonnegative(self, markov_data):
        pst = private_pst(markov_data, epsilon=1.0, l_top=30, rng=0)
        assert (pst.hists >= 0).all()

    def test_internal_hist_is_child_sum(self, markov_data):
        # Before clamping internal = sum of leaves; after clamping the root
        # can only have grown. Verify consistency within clamping tolerance.
        pst = private_pst(markov_data, epsilon=1.0, l_top=30, rng=0)
        for row in range(pst.size):
            kids = pst.child_table[row][pst.child_table[row] >= 0]
            if kids.size:
                child_sum = pst.hists[kids].sum(axis=0)
                assert (pst.hists[row] <= child_sum + 1e-9).all()

    def test_total_mass_in_right_ballpark(self, markov_data):
        # Root magnitude ~ total prediction positions (symbols + &).
        pst = private_pst(markov_data, epsilon=1.0, l_top=30, rng=1)
        exact_total = sum(len(s) + 1 for s in markov_data.sequences)
        assert pst.totals[0] == pytest.approx(exact_total, rel=0.25)

    def test_deterministic_given_seed(self, markov_data):
        a = private_pst(markov_data, epsilon=0.5, l_top=30, rng=42)
        b = private_pst(markov_data, epsilon=0.5, l_top=30, rng=42)
        assert a.size == b.size
        np.testing.assert_allclose(a.hists, b.hists)

    def test_deeper_model_with_more_budget(self, markov_data):
        sizes = {}
        for eps in (0.1, 8.0):
            sizes[eps] = np.mean(
                [
                    private_pst(markov_data, epsilon=eps, l_top=30, rng=s).size
                    for s in range(5)
                ]
            )
        assert sizes[8.0] >= sizes[0.1]

    def test_high_epsilon_approaches_exact_frequencies(self, markov_data, alpha):
        pst = private_pst(markov_data, epsilon=200.0, l_top=30, rng=0)
        exact_count = sum(
            (np.asarray(s) == alpha.code_of("A")).sum() for s in markov_data.sequences
        )
        assert pst.string_frequency([alpha.code_of("A")]) == pytest.approx(
            float(exact_count), rel=0.05
        )

    def test_sampling_produces_valid_sequences(self, markov_data, alpha):
        pst = private_pst(markov_data, epsilon=2.0, l_top=30, rng=3)
        for seq in pst.sample_dataset(20, rng=4, max_length=30):
            assert all(0 <= c < alpha.size for c in seq)
            assert len(seq) <= 30


    @pytest.mark.parametrize(
        "theta", [float("nan"), float("inf"), -float("inf"), "abc", True], ids=repr
    )
    def test_non_finite_theta_refused_before_spend(self, markov_data, theta, monkeypatch):
        def grow(*args, **kwargs):
            raise AssertionError("a level grew")

        # The package's ``private_pst`` name is the function, not the module.
        module = importlib.import_module("repro.sequence.private_pst")
        monkeypatch.setattr(module, "grow_frontier", grow)
        acct = PrivacyAccountant(1.0)
        with pytest.raises(ValueError, match="theta must be a finite number"):
            private_pst(markov_data, 1.0, l_top=30, theta=theta, accountant=acct)
        assert acct.ledger == []

    @pytest.mark.parametrize("max_depth", [-1, 2.5, True], ids=repr)
    def test_bad_max_depth_refused_before_spend(
        self, markov_data, max_depth, monkeypatch
    ):
        def grow(*args, **kwargs):
            raise AssertionError("a level grew")

        module = importlib.import_module("repro.sequence.private_pst")
        monkeypatch.setattr(module, "grow_frontier", grow)
        acct = PrivacyAccountant(1.0)
        with pytest.raises(ValueError, match="max_depth must be"):
            private_pst(
                markov_data, 1.0, l_top=30, max_depth=max_depth, accountant=acct
            )
        assert acct.ledger == []


class TestExactPST:
    def test_threshold_controls_size(self, markov_data):
        big = exact_pst(markov_data, l_top=30, split_threshold=0.0, max_context=4)
        small = exact_pst(markov_data, l_top=30, split_threshold=500.0, max_context=4)
        assert small.size < big.size

    def test_no_noise_in_exact_pst(self, markov_data, alpha):
        pst = exact_pst(markov_data, l_top=30, split_threshold=0.0, max_context=4)
        counts = pst.hists[0]
        exact_a = sum(
            (np.asarray(s) == alpha.code_of("A")).sum() for s in markov_data.sequences
        )
        assert counts[alpha.code_of("A")] == exact_a
