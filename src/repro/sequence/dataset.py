"""Sequence datasets, l⊤-truncation, and the flat token store.

Section 4.2 bounds each sequence's token length (symbols plus the end
marker ``&``, not the start marker ``$``) by a constant ``l⊤``; sequences
exceeding the bound are truncated to their first ``l⊤`` symbols and become
*open-ended* (no ``&``).  The :class:`TokenStore` materializes the truncated
dataset as one flat code array plus per-sequence offsets, which the PST
construction filters with vectorized numpy operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet

__all__ = ["SequenceDataset", "TokenStore"]


@dataclass(frozen=True)
class SequenceDataset:
    """A multiset of symbol sequences over a common alphabet."""

    alphabet: Alphabet
    sequences: tuple[np.ndarray, ...]
    name: str = "unnamed"

    def __post_init__(self) -> None:
        cleaned = []
        for i, seq in enumerate(self.sequences):
            arr = np.asarray(seq, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"sequence {i} is not one-dimensional")
            if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet.size):
                raise ValueError(
                    f"sequence {i} contains codes outside the alphabet "
                    f"(size {self.alphabet.size})"
                )
            cleaned.append(arr)
        object.__setattr__(self, "sequences", tuple(cleaned))

    @staticmethod
    def from_symbols(
        alphabet: Alphabet, sequences: list[list[str]], name: str = "unnamed"
    ) -> "SequenceDataset":
        """Build from plain symbol lists."""
        return SequenceDataset(
            alphabet=alphabet,
            sequences=tuple(alphabet.encode(s) for s in sequences),
            name=name,
        )

    @property
    def n(self) -> int:
        """Number of sequences."""
        return len(self.sequences)

    def lengths(self) -> np.ndarray:
        """Symbol counts per sequence (sentinels not counted)."""
        return np.asarray([len(s) for s in self.sequences], dtype=np.int64)

    @property
    def average_length(self) -> float:
        """Mean symbol count (the Table 3 statistic)."""
        if self.n == 0:
            return 0.0
        return float(self.lengths().mean())

    def n_longer_than(self, l_top: int) -> int:
        """How many sequences the ``l⊤`` truncation rule affects."""
        return int((self.lengths() >= l_top).sum())

    def length_quantile(self, q: float) -> int:
        """The ``q``-quantile of token lengths (symbols + ``&``) — used to
        pick ``l⊤`` as "roughly the 95% quantile" (Section 6.2)."""
        if self.n == 0:
            raise ValueError("dataset is empty")
        return int(np.quantile(self.lengths() + 1, q))

    def truncate(self, l_top: int) -> "TokenStore":
        """Apply the Section 4.2 truncation and build the token store."""
        return TokenStore.build(self, l_top)


@dataclass(frozen=True)
class TokenStore:
    """The truncated dataset, flattened for vectorized PST counting.

    ``flat`` concatenates every sequence's tokens ``[$ x1 ... xl &]`` (the
    ``&`` dropped for truncated sequences); ``starts``/``ends`` delimit each
    sequence.  ``position_starts`` maps every *prediction position* (a token
    that is a symbol or ``&``) to the start offset of its sequence.
    """

    alphabet: Alphabet
    l_top: int
    flat: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    name: str = "unnamed"
    n_truncated: int = 0

    @staticmethod
    def build(dataset: SequenceDataset, l_top: int) -> "TokenStore":
        """Truncate ``dataset`` at ``l⊤`` and flatten it."""
        if l_top < 1:
            raise ValueError(f"l_top must be >= 1, got {l_top!r}")
        alphabet = dataset.alphabet
        lengths = dataset.lengths()
        truncated = lengths >= l_top  # token length would exceed l_top
        sizes = np.minimum(lengths, l_top) + 1 + ~truncated  # $, symbols, & unless truncated
        ends = np.cumsum(sizes)
        starts = ends - sizes
        # Symbol k of sequence i lands at starts[i] + 1 + k when k < l_top.
        codes = np.concatenate([np.empty(0, dtype=np.int64), *dataset.sequences])
        rank = np.arange(codes.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        keep = rank < l_top
        flat = np.full(int(sizes.sum()), alphabet.end_code, dtype=np.int64)
        flat[starts] = alphabet.start_code
        flat[(np.repeat(starts + 1, lengths) + rank)[keep]] = codes[keep]
        return TokenStore(
            alphabet=alphabet,
            l_top=l_top,
            flat=flat,
            starts=starts,
            ends=ends,
            name=dataset.name,
            n_truncated=int(truncated.sum()),
        )

    @property
    def n(self) -> int:
        """Number of sequences."""
        return len(self.starts)

    def prediction_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """All positions whose token is a "next symbol" (not ``$``).

        Returns ``(positions, sequence_starts)`` — global indices into
        ``flat`` plus, for each, the start offset of its sequence.  These are
        exactly the root PST node's occurrences.
        """
        mask = self.flat != self.alphabet.start_code
        positions = np.nonzero(mask)[0]
        lengths = self.ends - self.starts
        seq_starts = np.repeat(self.starts, lengths)[positions]
        return positions, seq_starts

    def token_lengths(self) -> np.ndarray:
        """Token counts per sequence, excluding ``$`` (at most ``l⊤``)."""
        return self.ends - self.starts - 1

    def symbol_lengths(self) -> np.ndarray:
        """Symbol counts per sequence after truncation (``&`` not counted)."""
        lengths = self.ends - self.starts - 1
        has_end = self.flat[self.ends - 1] == self.alphabet.end_code
        return lengths - has_end.astype(np.int64)

    def sequence_tokens(self, index: int) -> np.ndarray:
        """The token codes of one sequence (including sentinels)."""
        return self.flat[self.starts[index] : self.ends[index]]
