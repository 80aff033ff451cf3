"""A released prediction suffix tree as structure-of-arrays.

:class:`FlatPST` is the only in-memory form of a released PST (Section
4.1).  A release is three pre-order arrays -- the prediction histograms,
each node's parent and the symbol it prepends to its parent's context --
and the constructor checks that they form a tree before it derives the
rest: context lengths, a dense child table indexed by prepended symbol
code, histogram totals and cumulative-probability rows.  ``private_pst``
and ``exact_pst`` write the arrays, ``pst_from_dict`` decodes them from
JSON, and the v2 artifact loader maps them from disk.

The sequence operations run as batched NumPy passes:

* :meth:`FlatPST.lookup_many` -- longest-suffix context resolution for a
  whole batch, one vectorized step per tree level;
* :meth:`FlatPST.frequency_many` -- Equation (12) string-frequency
  estimates for a whole query batch;
* :meth:`FlatPST.sample_dataset` -- batched synthetic generation: every
  active sequence advances one symbol per iteration from a single sized
  uniform draw (per-row inverse CDF).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..mechanisms.rng import RngLike, ensure_rng
from .alphabet import Alphabet

__all__ = ["FlatPST", "assemble_batches", "sample_lockstep"]


def assemble_batches(
    n: int, row_chunks: list[np.ndarray], code_chunks: list[np.ndarray]
) -> list[np.ndarray]:
    """Stitch per-step (row, symbol) batches into per-sequence arrays.

    Each step of a batched generator emits the rows still active and the
    symbol each drew; a stable sort by row id recovers every sequence in
    generation order.
    """
    if not row_chunks:
        return [np.empty(0, dtype=np.int64) for _ in range(n)]
    rows = np.concatenate(row_chunks)
    symbols = np.concatenate(code_chunks)
    order = np.argsort(rows, kind="stable")
    symbols = symbols[order]
    per_row = np.bincount(rows, minlength=n)
    return [piece.copy() for piece in np.split(symbols, np.cumsum(per_row)[:-1])]


def sample_lockstep(
    n: int,
    max_length: int,
    gen: np.random.Generator,
    windows: np.ndarray,
    end_code: int,
    hist_size: int,
    step,
) -> list[np.ndarray]:
    """The lockstep generation driver shared by the flat sequence engines.

    Every iteration advances all still-active sequences one symbol:
    ``step(active_windows)`` resolves each row's context to its cumulative
    conditional-probability row and a liveness mask (rows whose
    distribution has no mass stop generating), one sized uniform draw picks
    all next symbols via per-row inverse CDF, ``end_code`` retires a
    sequence, and the rolling context ``windows`` shift left by one.
    ``windows`` is mutated in place; the caller pre-fills its initial
    context.
    """
    active = np.arange(n, dtype=np.intp)
    row_chunks: list[np.ndarray] = []
    code_chunks: list[np.ndarray] = []
    for _ in range(max_length):
        if active.size == 0:
            break
        cum, live = step(windows[active])
        active = active[live]
        if active.size == 0:
            break
        cum = cum[live]
        u = gen.random(size=active.size)
        codes = np.minimum((cum <= u[:, None]).sum(axis=1), hist_size - 1)
        keep = codes != end_code
        active = active[keep]
        codes = codes[keep].astype(np.int64)
        if active.size:
            row_chunks.append(active.copy())
            code_chunks.append(codes)
            windows[active, :-1] = windows[active, 1:]
            windows[active, -1] = codes
    return assemble_batches(n, row_chunks, code_chunks)


@dataclass(frozen=True, eq=False)
class FlatPST:
    """A released PST in pre-order structure-of-arrays form.

    Built from ``hists``, ``parents`` and ``edge_symbols``; the
    constructor raises :class:`ValueError` unless they form a tree rooted
    at row 0, and derives every other array from them.

    Attributes
    ----------
    hists:
        ``(m, hist_size)`` finite prediction histograms over ``I ∪ {&}``,
        one row per node, the root first.
    parents, edge_symbols:
        ``(m,)`` topology: the parent's row (``-1`` for the root, below
        the node's own row otherwise) and the symbol of ``I ∪ {$}`` the
        node prepends to its parent's context (``-1`` for the root).  Two
        children of one node never share a symbol.
    depths:
        ``(m,)`` context lengths (derived).
    child_table:
        ``(m, |I| + 2)`` child row by prepended code (columns cover
        ``I ∪ {&, $}``; ``-1`` marks a missing child; derived).
    totals:
        ``(m,)`` histogram magnitudes, ``hists.sum(axis=1)`` (derived).
    cum_probs:
        ``(m, hist_size)`` cumulative conditional probabilities,
        ``cumsum(hist / total)``, zero rows where ``total <= 0`` (derived).
    """

    alphabet: Alphabet
    hists: np.ndarray
    parents: np.ndarray
    edge_symbols: np.ndarray
    depths: np.ndarray = field(init=False, repr=False)
    child_table: np.ndarray = field(init=False, repr=False)
    totals: np.ndarray = field(init=False, repr=False)
    cum_probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        alphabet = self.alphabet
        # Plain views: a memmap's Python-level hooks would run on every
        # array operation below.
        hists = np.asarray(self.hists)
        if hists.ndim != 2 or hists.shape[0] == 0 or hists.dtype.kind != "f":
            raise ValueError("PST hists must be a non-empty (m, hist_size) float array")
        m, hist_size = hists.shape
        if hist_size != alphabet.hist_size:
            raise ValueError(
                f"PST hists have {hist_size} columns; the alphabet requires "
                f"{alphabet.hist_size}"
            )
        if not np.isfinite(hists).all():
            raise ValueError("PST histograms must be finite")
        topology = {}
        for name, dtype in (("parents", np.intp), ("edge_symbols", np.int64)):
            array = np.asarray(getattr(self, name))
            if array.shape != (m,) or array.dtype.kind not in "iu":
                raise ValueError(f"PST {name} must be {m} integers, one per node")
            # An unsigned value past the signed range wraps negative and
            # fails the range checks below.
            topology[name] = array.astype(dtype, copy=False)
        parents, edges = topology["parents"], topology["edge_symbols"]
        n_codes = alphabet.start_code + 1
        if parents[0] != -1 or edges[0] != -1:
            raise ValueError("the PST root (row 0) must have parent -1 and edge -1")
        kids = np.arange(1, m)
        if np.any(parents[1:] < 0) or np.any(parents[1:] >= kids):
            raise ValueError("every PST node's parent must precede it")
        child_edges = edges[1:]
        if np.any(child_edges < 0) or np.any(child_edges >= n_codes) or np.any(
            child_edges == alphabet.end_code
        ):
            raise ValueError("PST edge symbols must be codes of I ∪ {$}")
        child_table = np.full((m, n_codes), -1, dtype=np.intp)
        child_table[parents[1:], child_edges] = kids
        if m > 1 and np.count_nonzero(child_table >= 0) != m - 1:
            raise ValueError("two children of one PST node share an edge symbol")
        # Every parent precedes its child, so every row hangs off the root
        # and one pass per level reaches all of them.
        depths = np.zeros(m, dtype=np.int64)
        level, depth = np.zeros(1, dtype=np.intp), 0
        while level.size:
            depths[level] = depth
            below = child_table[level].ravel()
            level, depth = below[below >= 0], depth + 1
        totals = hists.sum(axis=1)
        safe = np.where(totals > 0, totals, 1.0)
        cum_probs = np.cumsum(hists / safe[:, None], axis=1)
        cum_probs[totals <= 0] = 0.0
        for name, value in (
            ("hists", hists),
            ("parents", parents),
            ("edge_symbols", edges),
            ("depths", depths),
            ("child_table", child_table),
            ("totals", totals),
            ("cum_probs", cum_probs),
        ):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        """Total number of nodes."""
        return int(self.hists.shape[0])

    @property
    def height(self) -> int:
        """Longest context length."""
        return int(self.depths.max())

    def node_context(self, index: int) -> tuple[int, ...]:
        """The predictor string of node ``index`` (root: ``()``)."""
        context: list[int] = []
        while index > 0:
            context.append(int(self.edge_symbols[index]))
            index = int(self.parents[index])
        return tuple(context)

    # ------------------------------------------------------------------
    # Lookup and frequency estimation
    # ------------------------------------------------------------------

    def _lookup_rows(self, contexts: np.ndarray) -> np.ndarray:
        """Vectorized longest-suffix lookup.

        ``contexts`` is ``(B, W)`` right-aligned (last symbol in the last
        column) with ``-1`` padding on the left; any out-of-range code ends
        that row's walk, like a missing child does.
        """
        n_rows, width = contexts.shape
        cur = np.zeros(n_rows, dtype=np.intp)
        alive = np.ones(n_rows, dtype=bool)
        n_codes = self.child_table.shape[1]
        for step in range(min(width, self.height)):
            if not alive.any():
                break
            symbols = contexts[:, width - 1 - step]
            bad = alive & ((symbols < 0) | (symbols >= n_codes))
            alive[bad] = False
            rows = np.nonzero(alive)[0]
            if rows.size == 0:
                break
            child = self.child_table[cur[rows], symbols[rows]]
            found = child >= 0
            cur[rows[found]] = child[found]
            alive[rows[~found]] = False
        return cur

    def lookup(self, context: Sequence[int]) -> int:
        """Row of the node whose context is the longest suffix of ``context``.

        Children prepend symbols, so the walk consumes ``context`` from its
        end backwards; the empty context resolves to the root, row 0.
        """
        return int(self.lookup_many([context])[0])

    def lookup_many(self, contexts: Sequence[Sequence[int]]) -> np.ndarray:
        """Batched lookup: one node index per context."""
        arrays = [np.asarray(c, dtype=np.int64).ravel() for c in contexts]
        if not arrays:
            return np.empty(0, dtype=np.intp)
        width = max((a.shape[0] for a in arrays), default=0)
        if width == 0:
            return np.zeros(len(arrays), dtype=np.intp)
        padded = np.full((len(arrays), width), -1, dtype=np.int64)
        for i, a in enumerate(arrays):
            if a.shape[0]:
                padded[i, width - a.shape[0] :] = a
        return self._lookup_rows(padded)

    def string_frequency(self, codes: Sequence[int]) -> float:
        """Estimate how often the coded string occurs in ``D`` (Equation (12)).

        ``codes`` must be plain symbols (no sentinels).  The first symbol's
        count comes from the root histogram; every further symbol
        multiplies by the conditional probability predicted by the longest
        matching context.
        """
        return float(self.frequency_many([codes])[0])

    def _frequency_chain(
        self, queries: Sequence[Sequence[int]], anchored: bool
    ) -> np.ndarray:
        """The Equation (12) product chain for a whole batch of strings.

        Unanchored, the first factor is the root histogram's count of the
        first symbol and every context is a plain suffix — the occurrence
        estimate.  Anchored, a ``$`` start sentinel is prepended: the first
        factor comes from the ``$`` context node (how many sequences open
        with the symbol) and every conditional sees the sentinel, making
        the chain a *sequences-starting-with* estimate.
        """
        arrays = [np.asarray(q, dtype=np.int64).ravel() for q in queries]
        if not arrays:
            return np.empty(0)
        size = self.alphabet.size
        for a in arrays:
            if a.shape[0] == 0:
                raise ValueError("query string must be non-empty")
            if a.min() < 0 or a.max() >= size:
                raise ValueError("query string must contain ordinary symbols only")
        n_rows = len(arrays)
        lengths = np.asarray([a.shape[0] for a in arrays], dtype=np.int64)
        width = int(lengths.max())
        offset = 1 if anchored else 0
        padded = np.full((n_rows, width + offset), -1, dtype=np.int64)
        if anchored:
            padded[:, 0] = self.alphabet.start_code
        for i, a in enumerate(arrays):
            padded[i, offset : offset + a.shape[0]] = a
        if anchored:
            # The $-context node carries the sequence-start counts the
            # anchored chain opens with.  A tree released without it (tiny
            # budgets may never split on the start sentinel) has no
            # sequence-start statistics — falling back to the root would
            # silently answer with *occurrence* counts instead.
            first = int(self.child_table[0, self.alphabet.start_code])
            if first < 0:
                raise ValueError(
                    "the released PST has no '$' context node; "
                    "sequence-start (prefix) statistics are unavailable"
                )
        else:
            first = 0
        answers = self.hists[first][padded[:, offset]]
        for i in range(1, width):
            active = np.nonzero(lengths > i)[0]
            if active.size == 0:
                break
            nodes = self._lookup_rows(padded[active, : i + offset])
            totals = self.totals[nodes]
            live = (answers[active] > 0) & (totals > 0)
            stepped = np.zeros(active.shape[0])
            rows = active[live]
            stepped[live] = answers[rows] * (
                self.hists[nodes[live], padded[rows, i + offset]] / totals[live]
            )
            answers[active] = stepped
        return np.maximum(answers, 0.0)

    def frequency_many(self, queries: Sequence[Sequence[int]]) -> np.ndarray:
        """Equation (12) estimates for a whole batch of strings.

        Performs the same floating-point operations in the same order as
        the one-node-at-a-time walk frozen in :mod:`repro.experiments.perf`,
        so answers agree with it exactly.
        """
        return self._frequency_chain(queries, anchored=False)

    def prefix_frequency_many(self, queries: Sequence[Sequence[int]]) -> np.ndarray:
        """Estimated number of sequences *starting with* each string.

        The Equation (12) chain anchored at the ``$`` start sentinel (see
        :meth:`_frequency_chain`); one vectorized pass for the batch.
        """
        return self._frequency_chain(queries, anchored=True)

    def conditional_rows(
        self,
        contexts: Sequence[Sequence[int]],
        anchored: np.ndarray | None = None,
    ) -> np.ndarray:
        """``P(· | context)`` rows for a batch of contexts.

        Each row is the longest-matching node's normalized prediction
        histogram over ``I ∪ {&}`` (all zeros when that node's histogram
        has no mass).  ``anchored`` marks rows whose context starts a
        sequence: the ``$`` sentinel is prepended before lookup, so an
        anchored empty context resolves to the sequence-start node instead
        of the root.
        """
        arrays = [np.asarray(c, dtype=np.int64).ravel() for c in contexts]
        n_rows = len(arrays)
        hist_size = self.alphabet.hist_size
        if n_rows == 0:
            return np.empty((0, hist_size))
        if anchored is None:
            flags = np.zeros(n_rows, dtype=bool)
        else:
            flags = np.asarray(anchored, dtype=bool)
            if flags.shape != (n_rows,):
                raise ValueError(
                    f"anchored has shape {flags.shape}, expected ({n_rows},)"
                )
        start = self.alphabet.start_code
        widths = [a.shape[0] + int(flags[i]) for i, a in enumerate(arrays)]
        width = max(max(widths), 1)
        padded = np.full((n_rows, width), -1, dtype=np.int64)
        for i, a in enumerate(arrays):
            if flags[i]:
                padded[i, width - a.shape[0] - 1] = start
            if a.shape[0]:
                padded[i, width - a.shape[0] :] = a
        nodes = self._lookup_rows(padded)
        totals = self.totals[nodes]
        safe = np.where(totals > 0, totals, 1.0)
        rows = self.hists[nodes] / safe[:, None]
        rows[totals <= 0] = 0.0
        return rows

    # ------------------------------------------------------------------
    # Batched generation and mining
    # ------------------------------------------------------------------

    def sample_sequence(
        self, rng: RngLike = None, max_length: int | None = None
    ) -> np.ndarray:
        """Generate one synthetic sequence (Section 4.1's sampling procedure).

        Starts from the context ``[$]`` and repeatedly samples the next
        symbol from the longest-matching node's histogram until ``&`` or
        ``max_length`` symbols (10,000 when ``None``).  Returns plain
        symbol codes (no sentinels).  One sequence in lockstep draws the
        same uniforms, in the same order, as a per-symbol walk.
        """
        return self.sample_dataset(1, rng=rng, max_length=max_length)[0]

    def sample_dataset(
        self, n: int, rng: RngLike = None, max_length: int | None = None
    ) -> list[np.ndarray]:
        """Generate ``n`` synthetic sequences in lockstep.

        Identically distributed to ``n`` calls of :meth:`sample_sequence`
        (same per-step conditional laws, independent uniforms), but the RNG
        stream interleaves across sequences per *step* instead of per
        sequence, so fixed-seed outputs differ from a per-sequence loop.
        """
        gen = ensure_rng(rng)
        if max_length is None:
            max_length = 10_000
        windows = np.full((n, max(self.height, 1)), -1, dtype=np.int64)
        windows[:, -1] = self.alphabet.start_code

        def step(active_windows: np.ndarray):
            nodes = self._lookup_rows(active_windows)
            return self.cum_probs[nodes], self.totals[nodes] > 0

        return sample_lockstep(
            n,
            max_length,
            gen,
            windows,
            end_code=self.alphabet.end_code,
            hist_size=self.alphabet.hist_size,
            step=step,
        )

    def top_k_strings(
        self, k: int, max_length: int = 12
    ) -> list[tuple[tuple[int, ...], float]]:
        """The model's ``k`` most frequent strings, by best-first search.

        Equation (12) estimates are non-increasing under extension (each
        step multiplies by a probability), so a priority queue over
        prefixes explores exactly the candidates that can still reach the
        answer set; each popped prefix's β extensions are scored in one
        :meth:`frequency_many` call.  Returns ``(codes, estimated_count)``
        pairs, most frequent first.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        size = self.alphabet.size
        counter = 0
        singles = self.frequency_many([(code,) for code in range(size)])
        heap: list[tuple[float, int, tuple[int, ...]]] = []
        for code in range(size):
            heap.append((-float(singles[code]), counter, (code,)))
            counter += 1
        heapq.heapify(heap)
        results: list[tuple[tuple[int, ...], float]] = []
        while heap and len(results) < k:
            neg_est, _, codes = heapq.heappop(heap)
            est = -neg_est
            results.append((codes, est))
            if len(codes) < max_length and est > 0:
                extensions = [codes + (code,) for code in range(size)]
                estimates = self.frequency_many(extensions)
                for code in range(size):
                    ext_est = float(estimates[code])
                    if ext_est > 0:
                        heapq.heappush(heap, (-ext_est, counter, extensions[code]))
                        counter += 1
        return results
