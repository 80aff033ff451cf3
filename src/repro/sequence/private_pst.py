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

The release is written straight into :class:`~repro.sequence.flat.FlatPST`
arrays in pre-order: leaf noise is drawn for the leaves in pre-order,
every internal histogram sums its children's unclamped histograms in
child order, and the clamp comes last.
"""

from __future__ import annotations

import numpy as np

from ..core.node import TreeNode
from ..core.params import PrivTreeParams
from ..core.privtree import DEFAULT_MAX_DEPTH, privtree
from ..mechanisms.accountant import PrivacyAccountant
from ..mechanisms.rng import RngLike, ensure_rng
from .alphabet import Alphabet
from .dataset import SequenceDataset, TokenStore
from .flat import FlatPST
from .payload import PSTNodeData

__all__ = ["private_pst", "exact_pst"]


def _release(
    root: TreeNode[PSTNodeData],
    alphabet: Alphabet,
    scale: float | None,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hists, parents, edge_symbols)`` of a grown tree, in pre-order.

    ``scale=None`` means no noise.  Negative counts are left for the
    caller to clamp.
    """
    parents: list[int] = []
    edges: list[int] = []
    ranks: list[int] = []
    depths: list[int] = []
    leaves: list[int] = []
    leaf_hists: list[np.ndarray] = []
    stack = [(root, -1, -1, 0, 0)]
    while stack:
        node, parent, edge, rank, depth = stack.pop()
        index = len(parents)
        parents.append(parent)
        edges.append(edge)
        ranks.append(rank)
        depths.append(depth)
        if node.is_leaf:
            leaves.append(index)
            leaf_hists.append(node.payload.hist())
            continue
        for child_rank, child in reversed(list(enumerate(node.children))):
            code = child.payload.context[0]
            stack.append((child, index, code, child_rank, depth + 1))
    hists = np.zeros((len(parents), alphabet.hist_size))
    hists[leaves] = leaf_hists
    if scale is not None:
        hists[leaves] += rng.laplace(0.0, scale, size=(len(leaves), alphabet.hist_size))
    # Each internal histogram is ((c0 + c1) + c2) + ... over its children
    # in child order; deeper levels go first, so every child is final.
    kids = np.arange(1, len(parents))
    kid_parents = np.asarray(parents)[1:]
    kid_ranks = np.asarray(ranks)[1:]
    kid_depths = np.asarray(depths)[1:]
    order = np.lexsort((kid_ranks, -kid_depths))
    starts = (np.diff(kid_depths[order]) != 0) | (np.diff(kid_ranks[order]) != 0)
    for group in np.split(order, np.flatnonzero(starts) + 1):
        if not group.size:
            continue
        targets, sources = kid_parents[group], kids[group]
        if kid_ranks[group[0]] == 0:
            hists[targets] = hists[sources]
        else:
            hists[targets] += hists[sources]
    return (
        hists,
        np.asarray(parents, dtype=np.intp),
        np.asarray(edges, dtype=np.int64),
    )


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
    tree = privtree(PSTNodeData.root(store), params, rng=gen, max_depth=max_depth)

    hist_scale = l_top / eps_hist  # Theorem 4.2
    hists, parents, edges = _release(tree.root, dataset.alphabet, hist_scale, gen)
    np.maximum(hists, 0.0, out=hists)
    return FlatPST(dataset.alphabet, hists, parents, edges)


def exact_pst(
    dataset: SequenceDataset,
    l_top: int,
    split_threshold: float = 0.0,
    max_context: int = 16,
) -> FlatPST:
    """A non-private PST: split while Equation (13) exceeds the threshold.

    Used by tests (ground truth) and by the Truncate baseline's synthetic
    generation.  ``max_context`` bounds context length for tractability.
    """
    store: TokenStore = dataset.truncate(l_top)
    root_payload = PSTNodeData.root(store)
    root_node = TreeNode(payload=root_payload, depth=0)
    frontier = [root_node]
    while frontier:
        node = frontier.pop()
        payload = node.payload
        if (
            payload.can_split()
            and len(payload.context) < max_context
            and payload.score() > split_threshold
        ):
            node.children = [
                TreeNode(payload=c, depth=node.depth + 1) for c in payload.split()
            ]
            frontier.extend(node.children)
    return FlatPST(dataset.alphabet, *_release(root_node, dataset.alphabet, None, None))
