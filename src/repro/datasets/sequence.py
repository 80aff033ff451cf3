"""Synthetic sequence datasets mimicking the paper's Table 3 corpora.

The sequence experiments depend only on the Markov structure and the length
distribution of the data, so the substitutes are parametric Markov chains:

* :func:`mooclike` — 7 behaviour categories, sticky skewed transitions,
  average length ≈ 13.5 with a heavy tail (``l⊤ = 50`` truncates a few %).
* :func:`msnbclike` — 17 URL categories, many very short sessions, average
  length ≈ 4.75 (``l⊤ = 20``).

As with the spatial generators, a fixed *structure* seed freezes the chain
(the "population") while the caller's ``rng`` draws the sample.  Sampling is
vectorized across sequences, one Markov step per iteration.
"""

from __future__ import annotations

import numpy as np

from ..mechanisms.rng import RngLike, ensure_rng
from ..sequence.alphabet import Alphabet
from ..sequence.dataset import SequenceDataset

__all__ = ["mooclike", "msnbclike", "markov_sequences"]

_STRUCTURE_SEED = 160115


def markov_sequences(
    alphabet: Alphabet,
    n: int,
    lengths: np.ndarray,
    initial: np.ndarray,
    transition: np.ndarray,
    rng: np.random.Generator,
    name: str,
) -> SequenceDataset:
    """Sample ``n`` sequences of the given lengths from a Markov chain.

    Vectorized: one ``rng`` draw per time step updates every still-active
    sequence via inverse-CDF sampling against the cumulative transition
    rows.
    """
    k = alphabet.size
    if transition.shape != (k, k):
        raise ValueError(f"transition must be ({k}, {k}), got {transition.shape}")
    if initial.shape != (k,):
        raise ValueError(f"initial must be ({k},), got {initial.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (n,) or (lengths < 1).any():
        raise ValueError("lengths must be n positive integers")

    max_len = int(lengths.max())
    cum_init = np.cumsum(initial)
    cum_trans = np.cumsum(transition, axis=1)

    states = np.searchsorted(cum_init, rng.uniform(size=n), side="right")
    states = np.minimum(states, k - 1)
    symbols = np.full((n, max_len), -1, dtype=np.int64)
    symbols[:, 0] = states
    for t in range(1, max_len):
        active = lengths > t
        if not active.any():
            break
        u = rng.uniform(size=int(active.sum()))
        rows = cum_trans[states[active]]
        nxt = (rows < u[:, None]).sum(axis=1)
        nxt = np.minimum(nxt, k - 1)
        states[active] = nxt
        symbols[active, t] = nxt
    codes = symbols[np.arange(max_len) < lengths[:, None]]  # row-major: sequence order
    return SequenceDataset(alphabet, codes, np.concatenate([[0], np.cumsum(lengths)]), name)


def _skewed_transition(
    world: np.random.Generator, k: int, stickiness: float, concentration: float
) -> tuple[np.ndarray, np.ndarray]:
    """A random transition matrix with self-loops plus a skewed initial law."""
    transition = world.dirichlet(np.full(k, concentration), size=k)
    transition = (1.0 - stickiness) * transition + stickiness * np.eye(k)
    transition /= transition.sum(axis=1, keepdims=True)
    initial = world.dirichlet(np.full(k, concentration))
    return initial, transition


def mooclike(n: int = 20_000, rng: RngLike = None) -> SequenceDataset:
    """7-symbol learner-behaviour analogue: avg length ≈ 13.5, tail past 50."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    world = np.random.default_rng(_STRUCTURE_SEED + 10)
    gen = ensure_rng(rng)
    alphabet = Alphabet.of_size(7)
    initial, transition = _skewed_transition(world, 7, stickiness=0.35, concentration=0.5)
    # Negative-binomial lengths: mean ~13.5 with a long tail.
    lengths = 1 + gen.negative_binomial(2, 2.0 / 14.5, size=n)
    return markov_sequences(
        alphabet, n, lengths, initial, transition, gen, "mooclike"
    )


def msnbclike(n: int = 50_000, rng: RngLike = None) -> SequenceDataset:
    """17-symbol browsing analogue: many short sessions, avg length ≈ 4.75."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    world = np.random.default_rng(_STRUCTURE_SEED + 11)
    gen = ensure_rng(rng)
    alphabet = Alphabet.of_size(17)
    initial, transition = _skewed_transition(world, 17, stickiness=0.30, concentration=0.25)
    # Mixture: ~40% single-page sessions, geometric tail for the rest.
    single = gen.uniform(size=n) < 0.40
    geom = 1 + gen.geometric(1.0 / 6.8, size=n)
    lengths = np.where(single, 1, geom)
    return markov_sequences(
        alphabet, n, lengths, initial, transition, gen, "msnbclike"
    )
