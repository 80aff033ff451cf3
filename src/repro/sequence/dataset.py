"""Sequence datasets, l⊤-truncation, and the flat token store.

A :class:`SequenceDataset` holds its corpus as one ``codes`` array cut by
CSR ``offsets``.  Section 4.2 bounds each sequence's token length (symbols
plus the end marker ``&``, not the start marker ``$``) by a constant
``l⊤``: :meth:`SequenceDataset.clip` cuts every sequence to its first ``l⊤``
symbols, and the sequences it cuts become *open-ended* (no ``&``).  The
:class:`TokenStore` places the clipped codes between the sentinels in one
flat array plus per-sequence offsets, which the PST construction filters
with vectorized numpy operations.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .alphabet import Alphabet

__all__ = ["SequenceDataset", "TokenStore"]


@dataclass(frozen=True)
class SequenceDataset:
    """A multiset of symbol sequences over a common alphabet, held flat:
    sequence ``i`` is ``codes[offsets[i]:offsets[i + 1]]``."""

    alphabet: Alphabet
    codes: np.ndarray
    offsets: np.ndarray
    name: str = "unnamed"

    def __post_init__(self) -> None:
        codes, offsets = np.asarray(self.codes), np.asarray(self.offsets)
        if codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise ValueError(f"codes must be 1-D integers, got {codes.ndim}-D {codes.dtype}")
        if offsets.ndim != 1 or offsets.dtype.kind not in "iu" or offsets.size == 0:
            raise ValueError("offsets must be a non-empty 1-D integer array")
        if offsets[0] != 0 or offsets[-1] != codes.size or (np.diff(offsets) < 0).any():
            raise ValueError(f"offsets must rise from 0 to the {codes.size} codes")
        if codes.size and (codes.min() < 0 or codes.max() >= self.alphabet.size):
            raise ValueError(f"codes outside the alphabet (size {self.alphabet.size})")
        object.__setattr__(self, "codes", codes.astype(np.int64, copy=False))
        object.__setattr__(self, "offsets", offsets.astype(np.int64, copy=False))

    @staticmethod
    def from_sequences(
        alphabet: Alphabet, sequences: Iterable, name: str = "unnamed"
    ) -> "SequenceDataset":
        """Build from ragged input: one 1-D sequence of codes per entry."""
        arrays = [np.asarray(seq, dtype=np.int64) for seq in sequences]
        for i, arr in enumerate(arrays):
            if arr.ndim != 1:
                raise ValueError(f"sequence {i} is not one-dimensional")
        offsets = np.cumsum([0, *(arr.size for arr in arrays)], dtype=np.int64)
        codes = np.concatenate([np.empty(0, dtype=np.int64), *arrays])
        return SequenceDataset(alphabet, codes, offsets, name)

    @staticmethod
    def from_symbols(
        alphabet: Alphabet, sequences: list[list[str]], name: str = "unnamed"
    ) -> "SequenceDataset":
        """Build from plain symbol lists."""
        return SequenceDataset.from_sequences(alphabet, map(alphabet.encode, sequences), name)

    @property
    def n(self) -> int:
        """Number of sequences."""
        return self.offsets.size - 1

    @property
    def sequences(self) -> tuple[np.ndarray, ...]:
        """Each sequence as a view of ``codes`` (for per-sequence loops)."""
        bounds = self.offsets.tolist()
        return tuple(self.codes[a:b] for a, b in zip(bounds, bounds[1:]))

    def lengths(self) -> np.ndarray:
        """Symbol counts per sequence (sentinels not counted)."""
        return np.diff(self.offsets)

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

    def clip(self, l_top: int) -> "SequenceDataset":
        """The Section 4.2 truncation: every sequence cut to its first
        ``l⊤`` symbols (the only place the rule is written)."""
        if isinstance(l_top, bool) or not isinstance(l_top, numbers.Integral) or l_top < 1:
            raise ValueError(f"l_top must be an integer >= 1, got {l_top!r}")
        lengths = self.lengths()
        offsets = np.concatenate([[0], np.cumsum(np.minimum(lengths, l_top))])
        rank = np.arange(self.codes.size) - np.repeat(self.offsets[:-1], lengths)
        return SequenceDataset(self.alphabet, self.codes[rank < l_top], offsets, self.name)

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
        clipped = dataset.clip(l_top)
        lengths = clipped.lengths()
        truncated = lengths == l_top  # no room left for & within l_top tokens
        sizes = lengths + 1 + ~truncated  # $, symbols, & unless truncated
        ends = np.cumsum(sizes)
        starts = ends - sizes
        flat = np.full(int(sizes.sum()), clipped.alphabet.end_code, dtype=np.int64)
        flat[starts] = clipped.alphabet.start_code
        # Clipped code j of sequence i lands at starts[i] + 1 + (j - offsets[i]).
        shift = np.repeat(starts + 1 - clipped.offsets[:-1], lengths)
        flat[np.arange(clipped.codes.size) + shift] = clipped.codes
        return TokenStore(
            alphabet=clipped.alphabet,
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

    def sequence_tokens(self, index: int) -> np.ndarray:
        """The token codes of one sequence (including sentinels)."""
        return self.flat[self.starts[index] : self.ends[index]]
