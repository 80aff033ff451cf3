"""N-gram — variable-length n-gram release (after Chen, Acs, Castelluccia;
CCS 2012), the paper's main sequence-data competitor.

An exploration tree over grams (strings over ``I ∪ {&}``) up to length
``n_max``: level ``i`` holds grams of length ``i``, and a gram's children are
explored only when its noisy count clears a threshold.  In the spirit of
Algorithm 1 the construction needs the pre-defined height ``n_max`` (the
Figure 12 ablation knob) and pays noise proportional to it: each level gets
budget ``ε / n_max`` and one inserted sequence can change the level's gram
counts by ``l⊤`` in L1, so per-level noise is ``Lap(n_max * l⊤ / ε)``.

Released counts support string-frequency estimation (exact gram counts up to
``n_max``, Markov chaining beyond) and synthetic-sequence sampling.  Gram
counting is vectorized (packed window keys + ``np.unique``; the frozen dict
loop stays as :func:`count_grams_reference`), and batched generation runs on
the compiled :class:`FlatNGram` — per-step inverse-CDF draws across a whole
batch instead of one conditional-distribution rebuild per sampled symbol.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ..mechanisms.rng import RngLike, ensure_rng
from ..sequence.alphabet import Alphabet
from ..sequence.dataset import SequenceDataset, TokenStore
from ..sequence.flat import sample_lockstep
from ..sequence.windows import max_packable_length, packed_window_counts

__all__ = [
    "FlatNGram",
    "NGramModel",
    "count_grams",
    "count_grams_reference",
    "ngram_model",
]


def count_grams_reference(
    store: TokenStore, n_max: int
) -> dict[tuple[int, ...], int]:
    """Exact occurrence counts of every gram up to length ``n_max``.

    Grams run over symbols plus ``&`` (``&`` may only terminate a gram);
    the start sentinel is not part of any gram.  Frozen loop reference for
    :func:`count_grams`.
    """
    counts: dict[tuple[int, ...], int] = {}
    end_code = store.alphabet.end_code
    for idx in range(store.n):
        body_tuple = tuple(store.sequence_tokens(idx)[1:].tolist())  # drop $
        n = len(body_tuple)
        for pos in range(n):
            limit = min(n_max, n - pos)
            for length in range(1, limit + 1):
                gram = body_tuple[pos : pos + length]
                if end_code in gram[:-1]:
                    break  # & can only terminate a gram
                counts[gram] = counts.get(gram, 0) + 1
    return counts


def count_grams(store: TokenStore, n_max: int) -> dict[tuple[int, ...], int]:
    """Exact occurrence counts of every gram up to length ``n_max``.

    Vectorized: every window of the flat token store starting at a body
    position (anything but ``$``) and bounded by its sequence end becomes a
    packed base-``hist_size`` key, counted per length with one sort.  ``&``
    is always the last token of a sequence, so bounding windows by sequence
    ends is exactly the "``&`` may only terminate a gram" rule.  Output is
    exactly :func:`count_grams_reference`'s; building the full table once
    lets experiments sweep ε without recounting.
    """
    if n_max < 1:
        return {}
    base = max(store.alphabet.hist_size, 2)
    if n_max > max_packable_length(base):
        return count_grams_reference(store, n_max)
    lengths = store.ends - store.starts
    limits_all = np.repeat(store.ends, lengths)
    positions = np.nonzero(store.flat != store.alphabet.start_code)[0]
    counts: dict[tuple[int, ...], int] = {}
    for _, codes, occurrences in packed_window_counts(
        store.flat, positions, limits_all[positions], n_max, base
    ):
        counts.update(zip(map(tuple, codes.tolist()), occurrences.tolist()))
    return counts


@dataclass
class NGramModel:
    """The released n-gram synopsis: noisy counts per retained gram.

    The released model is never mutated, so the level-1 normalizer and the
    compiled sampling engine (:meth:`flat`) are computed lazily once and
    cached.
    """

    alphabet: Alphabet
    n_max: int
    l_top: int
    #: Noisy counts of retained grams (length 1 .. n_max), clamped >= 0.
    counts: dict[tuple[int, ...], float]
    _unigram_total: float | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _flat: "FlatNGram | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def from_arrays(
        alphabet: Alphabet,
        n_max: int,
        l_top: int,
        lengths: np.ndarray,
        codes: np.ndarray,
        counts: np.ndarray,
    ) -> "NGramModel":
        """The model whose gram ``i`` is the next ``lengths[i]`` of ``codes``
        and has count ``counts[i]``; what both release decoders build.

        Raises ``ValueError`` unless the grams are ones :func:`ngram_model`
        can release: lengths in ``1..n_max`` that sum to the number of
        codes, codes in ``I ∪ {&}`` with ``&`` only in last place, one
        finite count per gram, and no gram twice.  A decoded gram that
        breaks these would shadow a real one or answer from garbage.
        """
        lengths, codes, counts = (np.asarray(a) for a in (lengths, codes, counts))
        if lengths.ndim != 1 or codes.ndim != 1 or counts.shape != lengths.shape:
            raise ValueError("n-gram release needs one count per gram")
        if lengths.dtype.kind not in "iu" or codes.dtype.kind not in "iu":
            raise ValueError("n-gram lengths and codes must be integers")
        if counts.dtype.kind not in "fiu" or not np.isfinite(counts).all():
            raise ValueError("n-gram counts must be finite numbers")
        in_range = not lengths.size or (
            lengths.min() >= 1 and lengths.max() <= min(n_max, codes.size)
        )
        # Each length is at most codes.size, so the sum cannot wrap.
        if not in_range or int(lengths.sum()) != codes.size:
            raise ValueError(
                f"n-gram lengths must lie in 1..{n_max} and sum to the "
                "number of codes"
            )
        end = alphabet.end_code
        if codes.size and (codes.min() < 0 or codes.max() > end):
            raise ValueError("n-gram codes must lie in I ∪ {&}")
        ends = np.cumsum(lengths) - 1
        if np.count_nonzero(codes == end) != np.count_nonzero(codes[ends] == end):
            raise ValueError("n-gram '&' may only end a gram")
        flat = codes.tolist()
        starts = (ends + 1 - lengths).tolist()
        released = {
            tuple(flat[start : start + length]): count
            for start, length, count in zip(
                starts, lengths.tolist(), counts.astype(float).tolist()
            )
        }
        if len(released) != lengths.size:
            raise ValueError("n-gram release names a gram twice")
        return NGramModel(alphabet=alphabet, n_max=n_max, l_top=l_top, counts=released)

    def unigram_total(self) -> float:
        """Total mass at level 1 (used to normalize distributions; cached)."""
        if self._unigram_total is None:
            self._unigram_total = sum(
                v for gram, v in self.counts.items() if len(gram) == 1
            )
        return self._unigram_total

    def flat(self) -> "FlatNGram":
        """The compiled batched-sampling engine (built once, then cached)."""
        if self._flat is None:
            self._flat = FlatNGram.from_model(self)
        return self._flat

    def _resolve_context(self, context: tuple[int, ...]) -> tuple[int, ...] | None:
        """The longest recorded suffix of ``context`` with positive count.

        ``None`` means no recorded suffix, not even the empty one (i.e. the
        conditional falls back to the unigram normalizer); the resolved
        suffix depends only on ``context``, never on the predicted symbol.
        """
        for start in range(len(context) + 1):
            suffix = context[start:]
            if len(suffix) >= self.n_max:
                continue
            if not suffix:
                return ()
            denom = self.counts.get(suffix)
            if denom is not None and denom > 0:
                return suffix
        return None

    def _conditional(self, context: tuple[int, ...], code: int) -> float:
        """``P(code | context)`` via the longest recorded context."""
        suffix = self._resolve_context(context)
        if suffix is None:
            return 0.0
        if suffix:
            denom = self.counts[suffix]
            numer = self.counts.get(suffix + (code,), 0.0)
            return min(1.0, max(0.0, numer / denom))
        total = self.unigram_total()
        if total > 0:
            return max(0.0, self.counts.get((code,), 0.0)) / total
        return 0.0

    def conditional_row(self, context: tuple[int, ...]) -> np.ndarray:
        """``P(· | context)`` over ``I ∪ {&}`` with one suffix resolution.

        Matches ``[_conditional(context, c) for c in range(end + 1)]`` but
        resolves the context suffix once instead of once per symbol.
        """
        size = self.alphabet.hist_size
        row = np.zeros(size)
        suffix = self._resolve_context(context)
        if suffix is None:
            return row
        if suffix:
            denom = self.counts[suffix]
            for code in range(size):
                numer = self.counts.get(suffix + (code,))
                if numer is not None:
                    row[code] = min(1.0, max(0.0, numer / denom))
            return row
        total = self.unigram_total()
        if total > 0:
            for code in range(size):
                numer = self.counts.get((code,))
                if numer is not None:
                    row[code] = max(0.0, numer) / total
        return row

    def string_frequency(self, codes: tuple[int, ...] | list[int]) -> float:
        """Estimated occurrence count of a string of plain symbols."""
        gram = tuple(int(c) for c in codes)
        if not gram:
            raise ValueError("query string must be non-empty")
        if len(gram) <= self.n_max and gram in self.counts:
            return max(0.0, self.counts[gram])
        if len(gram) == 1:
            return 0.0  # unigram absent from the release
        head, tail = gram[:-1], gram[-1]
        base = self.string_frequency(head)
        if base <= 0:
            return 0.0
        return base * self._conditional(head[-(self.n_max - 1) :], tail)

    def top_k_strings(self, k: int, max_length: int = 12) -> list[tuple[int, ...]]:
        """Best-first top-k by estimated frequency (symbols only)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        counter = 0
        heap: list[tuple[float, int, tuple[int, ...]]] = []
        for code in range(self.alphabet.size):
            est = self.string_frequency((code,))
            heap.append((-est, counter, (code,)))
            counter += 1
        heapq.heapify(heap)
        out: list[tuple[int, ...]] = []
        while heap and len(out) < k:
            neg_est, _, gram = heapq.heappop(heap)
            out.append(gram)
            if len(gram) < max_length and -neg_est > 0:
                for code in range(self.alphabet.size):
                    ext = gram + (code,)
                    est = self.string_frequency(ext)
                    if est > 0:
                        heapq.heappush(heap, (-est, counter, ext))
                        counter += 1
        return out

    def sample_sequence(
        self, rng: RngLike = None, max_length: int | None = None
    ) -> np.ndarray:
        """Sample one synthetic sequence from the Markov model.

        Reference scalar path; :meth:`flat` generates whole batches with
        identically distributed output (see :meth:`FlatNGram.sample_dataset`).
        """
        gen = ensure_rng(rng)
        if max_length is None:
            max_length = self.l_top
        end = self.alphabet.end_code
        symbols: list[int] = []
        for _ in range(max_length):
            context = tuple(symbols[-(self.n_max - 1) :]) if self.n_max > 1 else ()
            probs = self.conditional_row(context)
            total = probs.sum()
            if total <= 0:
                break
            probs = probs / total
            code = int(gen.choice(len(probs), p=probs))
            if code == end:
                break
            symbols.append(code)
        return np.asarray(symbols, dtype=np.int64)

    def sample_dataset(
        self, n: int, rng: RngLike = None, max_length: int | None = None
    ) -> list[np.ndarray]:
        """Sample ``n`` synthetic sequences (reference per-sequence loop)."""
        gen = ensure_rng(rng)
        return [self.sample_sequence(gen, max_length) for _ in range(n)]


@dataclass(frozen=True)
class FlatNGram:
    """The n-gram model compiled for batched synthetic generation.

    Every *context state* (a released gram with positive count usable as a
    sampling context, plus the empty root context) gets one precomputed
    conditional-distribution row; generation keeps a per-sequence window of
    the last ``n_max - 1`` symbols, resolves each window to its longest
    recorded suffix state with sorted-key lookups, and draws every active
    sequence's next symbol from one uniform batch via per-row inverse CDF.
    """

    alphabet: Alphabet
    n_max: int
    l_top: int
    #: Cumulative normalized conditional rows, one per state (row 0: root).
    cum_probs: np.ndarray
    #: States whose conditional row has no mass (generation stops there).
    dead: np.ndarray
    #: Per suffix length: (sorted packed keys, state row per key).
    context_keys: dict[int, tuple[np.ndarray, np.ndarray]]
    #: Packing base of the context keys.
    key_base: int

    @staticmethod
    def from_model(model: NGramModel) -> "FlatNGram":
        """Compile the released model (raises ``OverflowError`` when the
        context window cannot be packed into ``int64`` keys)."""
        alphabet = model.alphabet
        width = model.n_max - 1
        base = max(alphabet.size, 2)
        if width > max_packable_length(base):
            raise OverflowError(
                f"n_max={model.n_max} contexts over base {base} overflow int64"
            )
        contexts: list[tuple[int, ...]] = [()]
        for gram, count in model.counts.items():
            if (
                0 < len(gram) <= width
                and count > 0
                and alphabet.end_code not in gram
            ):
                contexts.append(gram)
        rows = np.empty((len(contexts), alphabet.hist_size))
        for i, context in enumerate(contexts):
            rows[i] = model.conditional_row(context)
        totals = rows.sum(axis=1)
        dead = totals <= 0
        safe = np.where(dead, 1.0, totals)
        cum_probs = np.cumsum(rows / safe[:, None], axis=1)
        context_keys: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for length in range(1, width + 1):
            entries = [
                (gram, i)
                for i, gram in enumerate(contexts)
                if len(gram) == length
            ]
            if not entries:
                continue
            keys = np.array(
                [_pack(gram, base) for gram, _ in entries], dtype=np.int64
            )
            state = np.array([i for _, i in entries], dtype=np.intp)
            order = np.argsort(keys)
            context_keys[length] = (keys[order], state[order])
        return FlatNGram(
            alphabet=alphabet,
            n_max=model.n_max,
            l_top=model.l_top,
            cum_probs=cum_probs,
            dead=dead,
            context_keys=context_keys,
            key_base=base,
        )

    def _resolve_states(self, windows: np.ndarray) -> np.ndarray:
        """Longest recorded-suffix state per window row (0 = root).

        ``windows`` is ``(k, n_max - 1)``, right-aligned, ``-1``-padded on
        the left.
        """
        k, width = windows.shape
        states = np.zeros(k, dtype=np.intp)
        unresolved = np.ones(k, dtype=bool)
        for length in range(width, 0, -1):
            table = self.context_keys.get(length)
            if table is None:
                continue
            sorted_keys, state_rows = table
            candidate = unresolved & (windows[:, width - length] >= 0)
            if not candidate.any():
                continue
            block = windows[candidate, width - length :]
            keys = np.zeros(block.shape[0], dtype=np.int64)
            for col in range(length):
                keys = keys * self.key_base + block[:, col]
            slot = np.searchsorted(sorted_keys, keys)
            slot_clipped = np.minimum(slot, sorted_keys.shape[0] - 1)
            found = sorted_keys[slot_clipped] == keys
            rows = np.nonzero(candidate)[0][found]
            states[rows] = state_rows[slot_clipped[found]]
            unresolved[rows] = False
        return states

    def sample_dataset(
        self, n: int, rng: RngLike = None, max_length: int | None = None
    ) -> list[np.ndarray]:
        """Sample ``n`` synthetic sequences in lockstep.

        Identically distributed to ``NGramModel.sample_dataset`` (same
        Markov chain, independent uniforms) but the RNG stream interleaves
        across sequences per *step* instead of per sequence, so fixed-seed
        outputs differ from the scalar reference.
        """
        gen = ensure_rng(rng)
        if max_length is None:
            max_length = self.l_top
        windows = np.full((n, max(self.n_max - 1, 1)), -1, dtype=np.int64)

        def step(active_windows: np.ndarray):
            # With n_max == 1 every context resolves to the root state and
            # the (unit-width) window contents are never consulted.
            if self.n_max > 1:
                states = self._resolve_states(active_windows)
            else:
                states = np.zeros(active_windows.shape[0], dtype=np.intp)
            return self.cum_probs[states], ~self.dead[states]

        return sample_lockstep(
            n,
            max_length,
            gen,
            windows,
            end_code=self.alphabet.end_code,
            hist_size=self.alphabet.hist_size,
            step=step,
        )


def _pack(gram: tuple[int, ...], base: int) -> int:
    key = 0
    for code in gram:
        key = key * base + int(code)
    return key


def ngram_model(
    dataset: SequenceDataset,
    epsilon: float,
    l_top: int,
    n_max: int = 5,
    rng: RngLike = None,
    gram_counts: dict[tuple[int, ...], int] | None = None,
) -> NGramModel:
    """Build the private n-gram model.

    Level budgets are ``ε / n_max``; a level's gram-count vector has
    sensitivity ``l⊤`` (one sequence adds at most ``l⊤`` gram occurrences
    per level), so retained counts carry ``Lap(n_max * l⊤ / ε)`` noise.  A
    gram's children are explored when its noisy count exceeds one standard
    deviation of that noise — the pruning heuristic of the original method.

    ``gram_counts`` (from :func:`count_grams` at ``n_max`` or larger) can be
    supplied to amortize the exact counting across an ε sweep.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    gen = ensure_rng(rng)
    if gram_counts is None:
        gram_counts = count_grams(dataset.truncate(l_top), n_max)
    scale = n_max * l_top / epsilon
    threshold = math.sqrt(2.0) * scale

    released: dict[tuple[int, ...], float] = {}
    frontier: list[tuple[int, ...]] = [()]
    alphabet = dataset.alphabet
    for length in range(1, n_max + 1):
        if not frontier:
            break
        next_frontier: list[tuple[int, ...]] = []
        candidates = [
            parent + (code,)
            for parent in frontier
            for code in list(range(alphabet.size)) + [alphabet.end_code]
            if not (parent and parent[-1] == alphabet.end_code)
        ]
        for gram in candidates:
            noisy = gram_counts.get(gram, 0) + gen.laplace(0.0, scale)
            if noisy <= threshold:
                continue
            released[gram] = noisy
            if gram[-1] != alphabet.end_code and length < n_max:
                next_frontier.append(gram)
        frontier = next_frontier
    return NGramModel(
        alphabet=dataset.alphabet, n_max=n_max, l_top=l_top, counts=released
    )
