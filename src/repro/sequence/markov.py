"""The PST as a variable-length Markov model (Ron, Singer, Tishby 1996).

Section 4.1 presents the PST as a Markov model; beyond the paper's two
tasks it supports the standard language-model API: next-symbol prediction,
sequence log-likelihood, and per-symbol perplexity.  This module wraps a
(private or exact) released PST, a :class:`~repro.sequence.flat.FlatPST`,
with those operations, with additive smoothing so noisy zero counts never
produce infinite surprisal.  A sequence's contexts resolve in one batched
lookup; each step's distribution is the same float arithmetic as a single
:meth:`MarkovModel.predict_distribution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SequenceDataset
from .flat import FlatPST

__all__ = ["MarkovModel"]


@dataclass(frozen=True)
class MarkovModel:
    """Next-symbol prediction over a prediction suffix tree.

    ``smoothing`` is the additive (Lidstone) pseudo-count applied to every
    histogram cell when forming conditional distributions — essential for
    *private* PSTs whose clamped noisy counts can be all-zero.
    """

    pst: FlatPST
    smoothing: float = 0.5

    def __post_init__(self) -> None:
        if not self.smoothing > 0:
            raise ValueError(f"smoothing must be positive, got {self.smoothing!r}")

    @property
    def alphabet(self):
        """The underlying alphabet."""
        return self.pst.alphabet

    def predict_distribution(
        self, context: list[int] | tuple[int, ...]
    ) -> np.ndarray:
        """``P(next symbol | context)`` over ``I ∪ {&}``.

        ``context`` lists the preceding codes, earliest first, and may begin
        with the start marker (``alphabet.start_code``) to condition on
        being near the start of a sequence.
        """
        codes = [int(c) for c in context]
        for i, code in enumerate(codes):
            is_start = code == self.alphabet.start_code
            if is_start and i != 0:
                raise ValueError("start marker may only open the context")
            if not is_start and not 0 <= code < self.alphabet.size:
                raise ValueError(f"invalid context code {code!r}")
        return self._smoothed(self.pst.hists[self.pst.lookup(codes)])

    def _smoothed(self, hist: np.ndarray) -> np.ndarray:
        hist = np.maximum(hist, 0.0) + self.smoothing
        return hist / hist.sum()

    def predict_after_start(self) -> np.ndarray:
        """``P(first symbol)`` — the distribution right after ``$``."""
        return self.predict_distribution([self.alphabet.start_code])

    def sequence_log_likelihood(self, codes: np.ndarray | list[int]) -> float:
        """Log-probability of a full sequence, including its termination.

        The sequence is scored symbol by symbol with the longest-matching
        context, then the end marker ``&`` is scored after the last symbol.
        """
        codes = [int(c) for c in codes]
        if any(not 0 <= c < self.alphabet.size for c in codes):
            raise ValueError("sequence must contain ordinary symbols only")
        context = [self.alphabet.start_code] + codes
        rows = self.pst.lookup_many([context[: i + 1] for i in range(len(context))])
        total = 0.0
        for row, code in zip(rows, codes + [self.alphabet.end_code]):
            total += math.log(self._smoothed(self.pst.hists[row])[code])
        return total

    def dataset_log_likelihood(self, dataset: SequenceDataset) -> float:
        """Total log-likelihood of a dataset under the model."""
        if dataset.alphabet.size != self.alphabet.size:
            raise ValueError("dataset alphabet does not match the model")
        return sum(self.sequence_log_likelihood(seq) for seq in dataset.sequences)

    def perplexity(self, dataset: SequenceDataset) -> float:
        """Per-token perplexity (tokens = symbols plus one ``&`` each)."""
        if dataset.n == 0:
            raise ValueError("dataset is empty")
        tokens = int(dataset.lengths().sum()) + dataset.n
        return math.exp(-self.dataset_log_likelihood(dataset) / tokens)
