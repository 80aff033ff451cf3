"""The two analytical tasks of Section 6.2.

* **Top-k frequent strings** — the k strings (over ``I``, sentinels
  excluded) occurring most often as substrings of the sequences in ``D``.
  ``exact_top_k`` computes the ground truth ``K(D)``; each method's
  ``A(D)`` is compared with :func:`~repro.sequence.metrics.top_k_precision`.
* **Sequence-length distribution** — methods generate synthetic data whose
  length distribution is compared to the input's by total variation
  distance.

``count_substrings`` is vectorized (packed window keys + ``np.unique``, see
:mod:`repro.sequence.windows`); ``count_substrings_reference`` keeps the
historical dict loop, which the vectorized path must match *exactly* — the
equivalence is exercised by the test suite and re-verified by
``repro bench``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .dataset import SequenceDataset
from .windows import max_packable_length, packed_window_counts

__all__ = [
    "count_substrings",
    "count_substrings_reference",
    "exact_top_k",
    "rank_substring_counts",
    "top_k_substrings",
]


def count_substrings_reference(
    dataset: SequenceDataset, max_length: int
) -> Counter[tuple[int, ...]]:
    """Occurrence counts of every substring of length ``<= max_length``.

    Counts *occurrences* (a string appearing twice in one sequence counts
    twice), matching the paper's notion of string frequency.  Frozen loop
    reference for :func:`count_substrings`.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length!r}")
    counts: Counter[tuple[int, ...]] = Counter()
    for seq in dataset.sequences:
        tokens = tuple(seq.tolist())
        n = len(tokens)
        for start in range(n):
            limit = min(max_length, n - start)
            for length in range(1, limit + 1):
                counts[tokens[start : start + length]] += 1
    return counts


def rank_substring_counts(
    counts: Counter[tuple[int, ...]] | dict[tuple[int, ...], int],
    k: int | None = None,
) -> list[tuple[tuple[int, ...], int]]:
    """Rank a substring table by ``(-count, codes)`` — the canonical §6.2
    order (count descending, lexicographic tie-break, a prefix before its
    extensions); ``k`` truncates the ranking."""
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked if k is None else ranked[:k]


def _window_batches(dataset: SequenceDataset, max_length: int, base: int):
    """Per-length ``(length, codes, counts)`` batches of the corpus."""
    if dataset.codes.size == 0:
        return
    positions = np.arange(dataset.codes.size, dtype=np.int64)
    limits = np.repeat(dataset.offsets[1:], dataset.lengths())
    yield from packed_window_counts(dataset.codes, positions, limits, max_length, base)


def count_substrings(
    dataset: SequenceDataset, max_length: int
) -> Counter[tuple[int, ...]]:
    """Occurrence counts of every substring of length ``<= max_length``.

    Vectorized: every (position, length) window of the concatenated corpus
    becomes a packed integer key, counted per length with one sort.  Output
    is exactly :func:`count_substrings_reference`'s.  (Materializing the
    tuple-keyed table dominates the runtime; rankings that only need the
    top of the table should use :func:`top_k_substrings`, which never
    leaves array form.)
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length!r}")
    base = max(dataset.alphabet.size, 2)
    if max_length > max_packable_length(base):
        return count_substrings_reference(dataset, max_length)
    counts: Counter[tuple[int, ...]] = Counter()
    for _, codes, occurrences in _window_batches(dataset, max_length, base):
        # dict.update (not Counter.update) so the pair iterable is consumed
        # at C speed; keys never repeat across window lengths.
        dict.update(
            counts, zip(map(tuple, codes.tolist()), occurrences.tolist())
        )
    return counts


def top_k_substrings(
    dataset: SequenceDataset, k: int, max_length: int
) -> list[tuple[tuple[int, ...], int]]:
    """The ``k`` most frequent substrings with their counts, array-native.

    Equivalent to ranking :func:`count_substrings` by ``(-count, codes)``
    (count descending, lexicographic tie-break, a prefix before its
    extensions) but the ranking happens on packed arrays: only the ``k``
    winning substrings are ever materialized as tuples.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length!r}")
    base = max(dataset.alphabet.size, 2)
    if max_length > max_packable_length(base):
        return rank_substring_counts(
            count_substrings_reference(dataset, max_length), k
        )
    batches = list(_window_batches(dataset, max_length, base))
    if not batches:
        return []
    total = sum(codes.shape[0] for _, codes, _ in batches)
    # Pad windows to a common width with -1: lexicographic order on the
    # padded rows equals tuple order (a prefix sorts before its extensions
    # because -1 precedes every code).
    padded = np.full((total, max_length), -1, dtype=np.int64)
    occurrences = np.empty(total, dtype=np.int64)
    cursor = 0
    for length, codes, occ in batches:
        padded[cursor : cursor + codes.shape[0], :length] = codes
        occurrences[cursor : cursor + codes.shape[0]] = occ
        cursor += codes.shape[0]
    if k < total:
        # Keep only rows that can still reach the answer set: those whose
        # count ties or beats the k-th largest.
        kth = np.partition(occurrences, total - k)[total - k]
        contenders = np.nonzero(occurrences >= kth)[0]
    else:
        contenders = np.arange(total)
    keys = [padded[contenders, col] for col in range(max_length - 1, -1, -1)]
    keys.append(-occurrences[contenders])
    order = contenders[np.lexsort(keys)][:k]
    return [
        (tuple(row[: int(width)]), int(count))
        for row, width, count in zip(
            padded[order].tolist(),
            (padded[order] >= 0).sum(axis=1),
            occurrences[order],
        )
    ]


def exact_top_k(
    dataset: SequenceDataset,
    k: int,
    max_length: int = 10,
    counts: Counter[tuple[int, ...]] | None = None,
) -> list[tuple[int, ...]]:
    """The ground-truth top-k frequent strings ``K(D)``.

    Ties break lexicographically so the answer is deterministic.  Passing
    precomputed ``counts`` (from :func:`count_substrings` at the **same**
    ``max_length`` — a smaller cap silently drops longer strings from the
    ground truth and cannot be detected here; a larger one is rejected)
    amortizes the counting across experiments; without them the ranking
    runs array-native via :func:`top_k_substrings`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length!r}")
    if counts is None:
        return [codes for codes, _ in top_k_substrings(dataset, k, max_length)]
    if any(len(codes) > max_length for codes in counts):
        raise ValueError(
            "precomputed counts contain substrings longer than max_length "
            f"({max_length}); they were counted at a larger cap"
        )
    return [codes for codes, _ in rank_substring_counts(counts, k)]
