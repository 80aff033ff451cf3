"""Property tests for the federated failure surface.

The contract under attack here: a tampered aggregation round — shares
truncated, a shard's report duplicated, entries reordered — must surface
as a *typed* protocol error, never as a plausible-but-wrong count.  Two
mechanisms carry that weight:

* deterministic shape/protocol checks (vector length vs. the queried
  node list, shard count, round digests) catch structural tampering
  outright;
* the ``>= 2^63`` desync guard catches mask misalignment: every
  misaligned entry is one-time-padded by an uncancelled mask, hence
  uniform on ``Z_{2^64}``, so with ``k`` misaligned entries the guard
  misses with probability ``2^-k``.  The tests below keep ``k >= 32``
  (miss odds < 1 in 4 billion per example), which is what "always
  detected" means for a statistical guard.

Plus the transactional-accountant laws the crash-safe fit relies on:
an aborted block must roll back exactly, and exhaustion mid-block must
store nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated import (
    PairwiseBlinder,
    RoundMismatchError,
    SecureAggregator,
    ShardDesyncError,
    ShareShapeError,
)
from repro.mechanisms import PrivacyAccountant
from repro.mechanisms.accountant import BudgetExceededError

#: Enough misaligned entries that the desync guard's miss probability
#: (2^-k) is negligible for every generated example.
VECTOR_LEN = 48

n_shards_values = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _honest_shares(n_shards: int, seed: int, counts: np.ndarray) -> list:
    blinders = [
        PairwiseBlinder(i, n_shards, blinding_seed=seed) for i in range(n_shards)
    ]
    return [b.blind(counts) for b in blinders]


def _counts(seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.integers(0, 10_000, size=VECTOR_LEN, dtype=np.int64)


class TestTamperedSharesAreDetected:
    @given(n_shards=n_shards_values, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_honest_rounds_recover_exact_counts(self, n_shards, seed):
        counts = _counts(seed)
        shares = _honest_shares(n_shards, seed, counts)
        recovered = SecureAggregator(n_shards).aggregate(shares)
        assert np.array_equal(recovered, counts * n_shards)

    @given(
        n_shards=n_shards_values,
        seed=seeds,
        cut=st.integers(min_value=0, max_value=VECTOR_LEN - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_truncated_vector_is_always_typed(self, n_shards, seed, cut):
        shares = _honest_shares(n_shards, seed, _counts(seed))
        shares[-1] = shares[-1][:cut]
        with pytest.raises(ShareShapeError, match="must be aligned") as excinfo:
            SecureAggregator(n_shards).aggregate(shares)
        assert excinfo.value.shard_id == n_shards - 1

    @given(n_shards=n_shards_values, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_node_list_pins_the_expected_length(self, n_shards, seed):
        # With node_ids given, even a *consistent* wrong length (all
        # shards truncated alike) is caught — the round is bound to the
        # queried node list, not to whatever shard 0 sent.
        shares = [s[:-1] for s in _honest_shares(n_shards, seed, _counts(seed))]
        node_ids = list(range(VECTOR_LEN))
        with pytest.raises(ShareShapeError, match="queried nodes"):
            SecureAggregator(n_shards).aggregate(shares, node_ids=node_ids)

    @given(n_shards=n_shards_values, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_duplicated_report_is_detected(self, n_shards, seed):
        # Shard 0's report submitted again in shard 1's slot: pair masks
        # no longer telescope, every entry is one-time-padded garbage.
        shares = _honest_shares(n_shards, seed, _counts(seed))
        shares[1] = shares[0]
        with pytest.raises(ShardDesyncError, match="out of sync"):
            SecureAggregator(n_shards).aggregate(shares)

    @given(
        n_shards=n_shards_values,
        seed=seeds,
        shift=st.integers(min_value=1, max_value=VECTOR_LEN - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_reordered_entries_are_detected(self, n_shards, seed, shift):
        # One shard's vector rotated: every entry's mask misaligns.
        shares = _honest_shares(n_shards, seed, _counts(seed))
        shares[-1] = np.roll(shares[-1], shift)
        with pytest.raises(ShardDesyncError, match="out of sync"):
            SecureAggregator(n_shards).aggregate(shares)

    @given(n_shards=n_shards_values, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_missing_report_is_always_typed(self, n_shards, seed):
        shares = _honest_shares(n_shards, seed, _counts(seed))
        with pytest.raises(ShareShapeError, match="expected shares from"):
            SecureAggregator(n_shards).aggregate(shares[:-1])

    @given(seed=seeds, round_index=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_errors_carry_the_round_index(self, seed, round_index):
        shares = _honest_shares(2, seed, _counts(seed))
        shares[1] = shares[1][:-1]
        with pytest.raises(ShareShapeError) as excinfo:
            SecureAggregator(2).aggregate(shares, round_index=round_index)
        assert excinfo.value.round_index == round_index
        assert f"round {round_index}" in str(excinfo.value)

    def test_typed_errors_remain_valueerrors(self):
        # The pre-transport API raised bare ValueError; both tampering
        # errors must stay catchable that way for one deprecation cycle.
        assert issubclass(ShareShapeError, ValueError)
        assert issubclass(ShardDesyncError, ValueError)
        assert issubclass(RoundMismatchError, ValueError)


class TestTransactionalAccountant:
    budgets = st.floats(min_value=0.1, max_value=100.0)
    fractions = st.lists(
        st.floats(min_value=0.01, max_value=0.3), min_size=1, max_size=8
    )

    @given(budget=budgets, fractions=fractions)
    @settings(max_examples=50, deadline=None)
    def test_abort_rolls_back_exactly(self, budget, fractions):
        accountant = PrivacyAccountant(budget)
        accountant.spend(budget * 0.05, "committed")
        before = accountant.ledger
        with pytest.raises(RuntimeError, match="boom"):
            with accountant.transaction():
                # Scale fractions so even max_size draws of the max value
                # stay inside the budget; the abort must come from "boom",
                # never from an overdraw.
                for i, fraction in enumerate(fractions):
                    accountant.spend_fraction(fraction * 0.1, f"round {i}")
                raise RuntimeError("boom")
        assert accountant.ledger == before
        assert accountant.spent == pytest.approx(budget * 0.05)

    @given(budget=budgets)
    @settings(max_examples=50, deadline=None)
    def test_exhaustion_mid_round_stores_nothing(self, budget):
        accountant = PrivacyAccountant(budget)
        with pytest.raises(BudgetExceededError):
            with accountant.transaction():
                accountant.spend(budget * 0.6, "first half")
                accountant.spend(budget * 0.6, "second half")  # overdraws
        assert accountant.ledger == []
        assert accountant.remaining == pytest.approx(budget)

    @given(budget=budgets, fractions=fractions)
    @settings(max_examples=50, deadline=None)
    def test_committed_transaction_keeps_all_spends(self, budget, fractions):
        accountant = PrivacyAccountant(budget)
        with accountant.transaction():
            for i, fraction in enumerate(fractions):
                accountant.spend_fraction(fraction * 0.4, f"round {i}")
        assert len(accountant.ledger) == len(fractions)

    @given(budget=budgets, fractions=fractions)
    @settings(max_examples=50, deadline=None)
    def test_restore_then_total_matches(self, budget, fractions):
        first = PrivacyAccountant(budget)
        for i, fraction in enumerate(fractions):
            first.spend_fraction(fraction * 0.4, f"round {i}")
        second = PrivacyAccountant(budget)
        second.restore(first.ledger)
        assert second.ledger == first.ledger
        assert second.spent == pytest.approx(first.spent)
