"""EM — exponential-mechanism top-k frequent-string mining (Section 6.2).

The paper's second sequence baseline: maintain a candidate pool ``R``
(initially the length-1 strings), invoke the exponential mechanism ``k``
times with budget ``ε / k`` each; every selected string ``r`` joins the
answer set and is replaced in ``R`` by its ``|I|`` one-symbol extensions.

The utility score of a candidate is its exact occurrence count; one inserted
sequence of (truncated) length ``l⊤`` can raise a string's count by up to
``l⊤``, so the score sensitivity is ``l⊤``.  The growing noise with ``k``
explains the method's degradation on larger ``k`` (Figure 6).
"""

from __future__ import annotations

from collections import Counter

from ..mechanisms.exponential import exponential_mechanism
from ..mechanisms.rng import RngLike, ensure_rng
from ..sequence.dataset import SequenceDataset
from ..sequence.tasks import count_substrings

__all__ = ["em_top_k"]


def em_top_k(
    dataset: SequenceDataset,
    epsilon: float,
    l_top: int,
    k: int,
    max_length: int = 10,
    rng: RngLike = None,
    substring_counts: Counter[tuple[int, ...]] | None = None,
) -> list[tuple[int, ...]]:
    """Select k frequent strings with the exponential mechanism.

    Counting happens on ``dataset.clip(l_top)`` (the same pre-processing
    every private method gets); ``max_length`` bounds candidate growth.
    ``substring_counts`` can be supplied (counts of the clipped dataset up
    to ``max_length``) to amortize counting across an ε sweep.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    gen = ensure_rng(rng)
    counts = substring_counts
    if counts is None:
        counts = count_substrings(dataset.clip(l_top), max_length)

    eps_each = epsilon / k
    pool: list[tuple[int, ...]] = [(code,) for code in range(dataset.alphabet.size)]
    answers: list[tuple[int, ...]] = []
    for _ in range(k):
        if not pool:
            break
        scores = [float(counts.get(cand, 0)) for cand in pool]
        chosen = exponential_mechanism(
            pool, scores, sensitivity=float(l_top), epsilon=eps_each, rng=gen
        )
        answers.append(chosen)
        pool.remove(chosen)
        if len(chosen) < max_length:
            pool.extend(
                chosen + (code,) for code in range(dataset.alphabet.size)
            )
    return answers
