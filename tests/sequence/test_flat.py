"""Equivalence tests for the flat sequence engines.

Three contracts, mirroring the spatial flat-engine suite:

* vectorized gram/substring counting must equal the frozen dict references
  *exactly* (same keys, same integer counts) across randomized alphabets,
  lengths, truncations and ``n_max``;
* :class:`~repro.sequence.flat.FlatPST` must answer lookup/frequency/size
  exactly like the frozen pointer PST of :mod:`repro.experiments.perf`
  (frequency is the same float ops in the same order, so agreement is
  bit-level);
* batched generation is *identically distributed* to the scalar reference
  (different stream interleaving), checked on fixed seeds via length- and
  symbol-distribution TVD.
"""

import numpy as np
import pytest

from repro.baselines.ngram import (
    FlatNGram,
    count_grams,
    count_grams_reference,
    ngram_model,
)
from repro.api.releases import SequenceRelease
from repro.experiments.perf import (
    PredictionSuffixTree,
    reference_exact_pst,
    reference_private_pst,
)
from repro.sequence import (
    Alphabet,
    FlatPST,
    SequenceDataset,
    count_substrings,
    count_substrings_reference,
    exact_pst,
    exact_top_k,
    private_pst,
    top_k_substrings,
)
from repro.sequence.metrics import length_distribution, total_variation_distance
from repro.sequence.windows import max_packable_length


def random_dataset(seed: int, size: int | None = None, n: int = 80) -> SequenceDataset:
    gen = np.random.default_rng(seed)
    size = size or int(gen.integers(1, 7))
    sequences = tuple(
        gen.integers(0, size, size=int(gen.integers(0, 14))).astype(np.int64)
        for _ in range(n)
    )
    return SequenceDataset.from_sequences(Alphabet.of_size(size), sequences)


def random_psts() -> list[tuple[FlatPST, PredictionSuffixTree]]:
    """A varied set of released PSTs, exact and private over several
    alphabets, each with the frozen pointer PST of the same release."""
    psts = []
    for seed in range(3):
        data = random_dataset(seed, n=150)
        psts.append((exact_pst(data, l_top=8), reference_exact_pst(data, l_top=8)))
        psts.append(
            (
                private_pst(data, epsilon=2.0, l_top=8, rng=seed),
                reference_private_pst(data, epsilon=2.0, l_top=8, rng=seed),
            )
        )
    data = random_dataset(7, size=1, n=40)
    psts.append((exact_pst(data, l_top=5), reference_exact_pst(data, l_top=5)))
    return psts


class TestCountingEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_gram_counts_match_reference_exactly(self, seed):
        gen = np.random.default_rng(100 + seed)
        data = random_dataset(seed)
        for n_max in (1, 2, 3, 5):
            store = data.truncate(int(gen.integers(1, 16)))
            assert count_grams(store, n_max) == count_grams_reference(store, n_max)

    @pytest.mark.parametrize("seed", range(6))
    def test_substring_counts_match_reference_exactly(self, seed):
        data = random_dataset(seed)
        for max_length in (1, 2, 4, 7):
            assert count_substrings(data, max_length) == (
                count_substrings_reference(data, max_length)
            )

    def test_empty_and_tiny_corpora(self):
        alpha = Alphabet.of_size(3)
        empty = SequenceDataset.from_sequences(alpha, (np.empty(0, np.int64),))
        assert count_substrings(empty, 4) == count_substrings_reference(empty, 4)
        store = empty.truncate(5)
        assert count_grams(store, 3) == count_grams_reference(store, 3)

    def test_counts_are_python_ints(self):
        counts = count_substrings(random_dataset(1), 3)
        assert all(type(v) is int for v in counts.values())

    def test_overflow_falls_back_to_reference(self):
        # n_max beyond the packable window must still answer (via the
        # reference), not crash or silently truncate.
        data = random_dataset(2, size=6, n=20)
        store = data.truncate(30)
        n_max = max_packable_length(data.alphabet.hist_size) + 1
        assert count_grams(store, n_max) == count_grams_reference(store, n_max)

    def test_validation(self):
        data = random_dataset(3)
        with pytest.raises(ValueError):
            count_substrings(data, 0)
        with pytest.raises(ValueError):
            count_substrings_reference(data, 0)
        with pytest.raises(ValueError):
            top_k_substrings(data, 0, 3)
        with pytest.raises(ValueError):
            top_k_substrings(data, 5, 0)


class TestTopKSubstrings:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dict_ranking_exactly(self, seed):
        # The array-native ranking must reproduce sorted-by-(-count, codes)
        # over the full dict table, ties and prefix ordering included.
        data = random_dataset(seed)
        for max_length in (1, 3, 6):
            table = count_substrings_reference(data, max_length)
            expected = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
            for k in (1, 7, 10_000):
                assert top_k_substrings(data, k, max_length) == expected[:k]

    def test_exact_top_k_uses_array_ranking(self):
        data = random_dataset(9)
        table = count_substrings_reference(data, 4)
        expected = [
            codes
            for codes, _ in sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        ][:12]
        assert exact_top_k(data, 12, max_length=4) == expected
        # Precomputed counts take the historical dict path with equal output.
        assert exact_top_k(data, 12, max_length=4, counts=table) == expected

    def test_empty_corpus(self):
        alpha = Alphabet.of_size(2)
        empty = SequenceDataset.from_sequences(alpha, (np.empty(0, np.int64),))
        assert top_k_substrings(empty, 5, 3) == []


class TestFlatPSTCompilation:
    def test_mirrors_tree(self):
        for flat, pst in random_psts():
            assert flat.size == pst.size
            assert flat.height == pst.height
            contexts = {node.context for node in pst.root.iter_nodes()}
            assert {flat.node_context(i) for i in range(flat.size)} == contexts

    def test_histograms_match_nodes(self):
        flat, pst = random_psts()[0]
        by_context = {n.context: n.hist for n in pst.root.iter_nodes()}
        for i in range(flat.size):
            np.testing.assert_array_equal(
                flat.hists[i], by_context[flat.node_context(i)]
            )

    def test_flat_is_cached(self):
        # A release holds one FlatPST and hands out that same object.
        flat, _ = random_psts()[0]
        release = SequenceRelease(flat, method="pst", epsilon_spent=1.0)
        assert release.flat() is flat
        assert release.flat() is release.flat()

    def test_stats_cached_and_correct(self):
        flat, pst = random_psts()[0]
        size = sum(1 for _ in pst.root.iter_nodes())
        height = max(len(n.context) for n in pst.root.iter_nodes())
        assert (flat.size, flat.height) == (size, height)
        assert flat.depths.tolist() == [
            len(flat.node_context(i)) for i in range(flat.size)
        ]


class TestFlatPSTLookup:
    def test_lookup_matches_recursive(self):
        gen = np.random.default_rng(0)
        for flat, pst in random_psts():
            span = pst.alphabet.start_code + 1
            for _ in range(100):
                context = list(gen.integers(0, span, size=int(gen.integers(0, 7))))
                expected = pst.lookup(context).context
                assert flat.node_context(flat.lookup(context)) == expected

    def test_lookup_many_batches(self):
        flat, pst = random_psts()[0]
        gen = np.random.default_rng(1)
        contexts = [
            list(gen.integers(0, pst.alphabet.size, size=int(gen.integers(0, 6))))
            for _ in range(64)
        ]
        batched = flat.lookup_many(contexts)
        for ctx, index in zip(contexts, batched):
            assert flat.node_context(int(index)) == pst.lookup(ctx).context

    def test_empty_context_is_root(self):
        flat, _ = random_psts()[0]
        assert flat.lookup([]) == 0

    def test_out_of_range_codes_stop_the_walk(self):
        flat, pst = random_psts()[0]
        # A bogus code ends the walk exactly like a missing child does.
        assert flat.node_context(flat.lookup([99, 0])) == pst.lookup([99, 0]).context


class TestFlatPSTFrequency:
    def test_bit_identical_to_recursive(self):
        gen = np.random.default_rng(2)
        for flat, pst in random_psts():
            size = pst.alphabet.size
            queries = [
                list(gen.integers(0, size, size=int(gen.integers(1, 8))))
                for _ in range(200)
            ]
            batched = flat.frequency_many(queries)
            recursive = np.array([pst.string_frequency(q) for q in queries])
            np.testing.assert_array_equal(batched, recursive)

    def test_scalar_wrapper(self):
        flat, pst = random_psts()[0]
        assert flat.string_frequency([0]) == pst.string_frequency([0])

    def test_rejects_bad_queries(self):
        flat, _ = random_psts()[0]
        with pytest.raises(ValueError):
            flat.frequency_many([[]])
        with pytest.raises(ValueError):
            flat.frequency_many([[flat.alphabet.end_code]])

    def test_top_k_identical_to_recursive(self):
        for flat, pst in random_psts()[:4]:
            assert flat.top_k_strings(20, max_length=5) == pst.top_k_strings(
                20, max_length=5
            )


class TestBatchedGeneration:
    def test_sequences_valid(self):
        flat, _ = random_psts()[0]
        batch = flat.sample_dataset(300, rng=0, max_length=12)
        assert len(batch) == 300
        size = flat.alphabet.size
        for seq in batch:
            assert seq.dtype == np.int64
            assert len(seq) <= 12
            assert ((seq >= 0) & (seq < size)).all()

    def test_distribution_matches_reference(self):
        # Fixed seed: the batched engine must reproduce the scalar
        # reference's law — compare length and unigram distributions of two
        # large samples by TVD (noise floor ~sqrt(bins / n)).
        data = random_dataset(11, size=4, n=400)
        flat = exact_pst(data, l_top=8)
        pst = reference_exact_pst(data, l_top=8)
        n = 4000
        batch = flat.sample_dataset(n, rng=123, max_length=10)
        reference = pst.sample_dataset(n, rng=456, max_length=10)
        lengths_tvd = total_variation_distance(
            length_distribution([len(s) for s in batch], max_length=11),
            length_distribution([len(s) for s in reference], max_length=11),
        )
        assert lengths_tvd < 0.12
        flat_syms = np.concatenate([s for s in batch if len(s)])
        ref_syms = np.concatenate([s for s in reference if len(s)])
        sym_tvd = total_variation_distance(
            np.bincount(flat_syms, minlength=4) / flat_syms.size,
            np.bincount(ref_syms, minlength=4) / ref_syms.size,
        )
        assert sym_tvd < 0.08

    def test_deterministic_under_fixed_seed(self):
        flat, _ = random_psts()[0]
        a = flat.sample_dataset(50, rng=9, max_length=10)
        b = flat.sample_dataset(50, rng=9, max_length=10)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_max_length_cap(self):
        flat, _ = random_psts()[0]
        assert all(len(s) <= 3 for s in flat.sample_dataset(100, rng=4, max_length=3))


class TestFlatNGram:
    @pytest.fixture
    def model(self):
        return ngram_model(
            random_dataset(5, size=4, n=400), epsilon=10.0, l_top=10, n_max=3, rng=0
        )

    def test_compiled_and_cached(self, model):
        assert isinstance(model.flat(), FlatNGram)
        assert model.flat() is model.flat()

    def test_unigram_total_cached(self, model):
        expected = sum(v for g, v in model.counts.items() if len(g) == 1)
        assert model.unigram_total() == expected
        assert model._unigram_total == expected

    def test_conditional_row_matches_scalar(self, model):
        gen = np.random.default_rng(3)
        end = model.alphabet.end_code
        for _ in range(30):
            context = tuple(
                int(c) for c in gen.integers(0, 4, size=int(gen.integers(0, 3)))
            )
            row = model.conditional_row(context)
            scalar = [model._conditional(context, c) for c in range(end + 1)]
            np.testing.assert_array_equal(row, scalar)

    def test_sequences_valid(self, model):
        batch = model.flat().sample_dataset(200, rng=1)
        assert len(batch) == 200
        for seq in batch:
            assert len(seq) <= model.l_top
            assert ((seq >= 0) & (seq < model.alphabet.size)).all()

    def test_distribution_matches_reference(self, model):
        n = 3000
        batch = model.flat().sample_dataset(n, rng=21, max_length=10)
        reference = model.sample_dataset(n, rng=42, max_length=10)
        tvd = total_variation_distance(
            length_distribution([len(s) for s in batch], max_length=11),
            length_distribution([len(s) for s in reference], max_length=11),
        )
        assert tvd < 0.12

    def test_unigram_only_model(self):
        model = ngram_model(
            random_dataset(6, size=3, n=200), epsilon=5.0, l_top=6, n_max=1, rng=0
        )
        batch = model.flat().sample_dataset(100, rng=2)
        assert len(batch) == 100
        assert all(((s >= 0) & (s < 3)).all() for s in batch)
