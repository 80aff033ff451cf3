"""The modified PrivTree for private Markov models (Section 4.2).

Pipeline (Theorems 4.1 and 4.2, plus the §4.2 budget split):

1. **Structure** — run PrivTree over PST contexts with the Equation (13)
   score, fanout ``β = |I| + 1`` and score sensitivity ``l⊤`` (one inserted
   sequence touches at most ``l⊤`` root-to-leaf paths, changing each
   affected node's score by at most one each time).  Budget: ``ε / β``.
2. **Histograms** — release each leaf's prediction histogram with
   ``Lap(l⊤ / ε_hist)`` noise, ``ε_hist = ε (β − 1) / β`` (each token of a
   sequence lands in exactly one leaf histogram, so the leaf-histogram
   vector has sensitivity ``l⊤``).
3. **Postprocess** — internal histograms are sums of their leaves; negative
   counts clamp to zero so every histogram is a valid distribution.

The tree grows as :class:`ContextLevel` arrays, one per context length,
scored by :class:`PositionLabels`.  The release is written straight into
:class:`~repro.sequence.flat.FlatPST` arrays in pre-order: one sized leaf
draw in pre-order, internal histograms as child sums, then the clamp.
"""

from __future__ import annotations

import numpy as np

from ..core.analysis import check_max_depth
from ..core.level import Level, preorder
from ..core.params import PrivTreeParams, check_theta
from ..core.privtree import DEFAULT_MAX_DEPTH, grow_frontier
from ..mechanisms.accountant import PrivacyAccountant
from ..mechanisms.rng import RngLike, ensure_rng
from .alphabet import Alphabet
from .dataset import SequenceDataset, TokenStore
from .flat import FlatPST

__all__ = ["ContextLevel", "PositionLabels", "equation_13_score", "exact_pst", "private_pst"]


def equation_13_score(hists: np.ndarray) -> np.ndarray:
    """``‖hist‖₁ − max(hist)`` over the last axis — Equation (13); 0 for an
    empty histogram.  Monotone (Lemma 4.1), and small for a histogram of
    small magnitude (condition C2) or low entropy (condition C3)."""
    hists = np.asarray(hists)
    if hists.shape[-1] == 0:
        return np.zeros(hists.shape[:-1])
    return (hists.sum(axis=-1) - hists.max(axis=-1)).astype(float)


class ContextLevel(Level):
    """The PST contexts of one depth, as the symbols they prepend.

    ``edges[i]`` is the first symbol of node ``i``'s context (``-1`` at
    the root); the rest is its parent's.  A split tiles ``I ∪ {$}``: child
    ``j`` of the ``r``-th split node is node ``r * fanout + j`` of the next
    level and prepends ``symbols[j]`` (code ``j`` of ``I``, ``$`` last).
    """

    __slots__ = ("edges", "symbols")

    def __init__(self, depth: int, edges: np.ndarray, symbols: np.ndarray) -> None:
        super().__init__(depth)
        self.edges = edges
        self.symbols = symbols

    @staticmethod
    def root(alphabet: Alphabet) -> "ContextLevel":
        """The one-node level holding the empty context."""
        symbols = np.arange(alphabet.pst_fanout, dtype=np.int64)
        symbols[-1] = alphabet.start_code
        return ContextLevel(0, np.full(1, -1, dtype=np.int64), symbols)

    @property
    def size(self) -> int:
        """Number of contexts at this depth."""
        return self.edges.size

    @property
    def fanout(self) -> int:
        """β = |I| + 1 — the number of children each split produces."""
        return self.symbols.size

    def splittable(self) -> np.ndarray:
        """Condition C1: a context that starts with ``$`` cannot be extended."""
        return self.edges != self.symbols[-1]

    def split(self, index: np.ndarray) -> "ContextLevel":
        """Extend the contexts at the ascending ``index``; return their children."""
        self.split_index = np.asarray(index, dtype=np.intp)
        edges = np.tile(self.symbols, self.split_index.size)
        self.next = ContextLevel(self.depth + 1, edges, self.symbols)
        return self.next


class PositionLabels:
    """The score source: each prediction position's node in the current level.

    A prediction position (a token other than ``$``) lies in the node of
    depth ``L`` whose context is the ``L`` tokens before it.  One
    ``bincount`` over (node, token) gives a level's exact histograms, kept
    in :attr:`hists`; every split drops the positions of the nodes that
    did not split.
    """

    def __init__(self, store: TokenStore) -> None:
        self.alphabet = store.alphabet
        self._flat = store.flat
        self._positions, _ = store.prediction_positions()
        self._tokens = store.flat[self._positions]
        self._labels = np.zeros(self._positions.size, dtype=np.intp)
        #: Exact ``(size, hist_size)`` prediction histograms, one array per depth.
        self.hists: list[np.ndarray] = [self._count(1)]

    def _count(self, size: int) -> np.ndarray:
        width = self.alphabet.hist_size
        keys = self._labels * width + self._tokens
        return np.bincount(keys, minlength=size * width).reshape(size, width)

    def scores(self, level: ContextLevel, eligible: np.ndarray) -> np.ndarray:
        """Equation (13) scores of ``level``'s nodes at ``eligible``."""
        return equation_13_score(self.hists[level.depth][eligible])

    def descend(self, level: ContextLevel, split: np.ndarray, next_level: ContextLevel) -> None:
        """Move every position to its node in ``next_level`` (a commit callback).

        A position of split node ``r`` goes to child ``r * fanout + j``,
        ``symbols[j]`` the token before the context.  A split context never
        starts with ``$``, so that token is in the position's sequence and
        never ``&``: a code of ``I`` is its own ``j`` and ``$`` the last.
        """
        first = np.full(level.size, -1, dtype=np.intp)
        first[split] = level.fanout * np.arange(split.size)
        labels = first[self._labels]
        keep = labels >= 0
        self._positions = self._positions[keep]
        self._tokens = self._tokens[keep]
        before = self._flat[self._positions - (level.depth + 1)]
        self._labels = labels[keep] + np.minimum(before, level.fanout - 1)
        self.hists.append(self._count(next_level.size))


def _release(
    root: ContextLevel,
    labels: PositionLabels,
    scale: float | None,
    gen: np.random.Generator | None = None,
) -> FlatPST:
    """The tree grown below ``root`` as a :class:`FlatPST`, in pre-order.

    Leaves keep their exact histograms plus, unless ``scale`` is None, one
    sized Laplace draw over the leaves in pre-order; internal histograms
    are child sums, and negative counts clamp to zero last.
    """
    layout = preorder(root)
    hists = np.concatenate(labels.hists)[layout.bfs].astype(float)
    if scale is not None:
        leaves = layout.leaves()
        hists[leaves] += gen.laplace(0.0, scale, size=(leaves.size, hists.shape[1]))
    layout.sum_children(hists)
    np.maximum(hists, 0.0, out=hists)
    edges = np.concatenate([level.edges for level in root.levels()])
    return FlatPST(labels.alphabet, hists, layout.parent_rows(), edges[layout.bfs])


def private_pst(
    dataset: SequenceDataset,
    epsilon: float,
    l_top: int,
    theta: float = 0.0,
    rng: RngLike = None,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    accountant: PrivacyAccountant | None = None,
) -> FlatPST:
    """Build an ε-DP prediction suffix tree over ``dataset``.

    ``l_top`` is the Section 4.2 length bound; sequences longer than it are
    truncated (open-ended) before anything touches the data.  Passing an
    external ``accountant`` records the §4.2 split as two ledger entries
    summing to ``epsilon``; a private one is created when omitted.
    """
    # Before the spend: a refused fit spends nothing.
    check_theta(theta)
    check_max_depth(max_depth)
    gen = ensure_rng(rng)
    store = dataset.truncate(l_top)
    beta = dataset.alphabet.pst_fanout
    if accountant is None:
        accountant = PrivacyAccountant(epsilon)
    eps_tree = accountant.spend((1.0 / beta) * epsilon, "pst/structure")
    eps_hist = accountant.spend((1.0 - 1.0 / beta) * epsilon, "pst/leaf histograms")

    params = PrivTreeParams.calibrate(
        eps_tree, fanout=beta, sensitivity=float(l_top), theta=theta
    )
    root = ContextLevel.root(dataset.alphabet)
    labels = PositionLabels(store)
    grow_frontier(root, params, gen, labels.scores, labels.descend, max_depth=max_depth)
    hist_scale = l_top / eps_hist  # Theorem 4.2
    return _release(root, labels, hist_scale, gen)


def exact_pst(
    dataset: SequenceDataset,
    l_top: int,
    split_threshold: float = 0.0,
    max_context: int = 16,
) -> FlatPST:
    """A non-private PST: split while Equation (13) exceeds the threshold.

    The tests' ground truth; ``max_context`` bounds the context length.
    """
    root = ContextLevel.root(dataset.alphabet)
    labels = PositionLabels(dataset.truncate(l_top))
    level = root
    while level.size and level.depth < max_context:
        scores = equation_13_score(labels.hists[level.depth])
        split = np.flatnonzero(level.splittable() & (scores > split_threshold))
        next_level = level.split(split)
        labels.descend(level, split, next_level)
        level = next_level
    return _release(root, labels, None)
