"""The Section 5 thought experiment: a quadtree built on the binary SVT.

The paper observes that *if* the binary SVT's claimed guarantee held, it
would beat PrivTree for spatial decomposition: initialize a queue with the
root's count query, pop queries one by one through the SVT, and split every
node whose indicator comes back 1.  Lemma 5.1 shows the premise is false —
the construction is **not** ε-differentially private at the claimed noise
scale — so this implementation exists purely to reproduce the comparison
and must never be used to release data.

Popping the queue breadth first noises each node's count once, with a
fresh ``Lap(2/ε)`` draw, and compares it with one fixed noisy threshold.
That is Algorithm 1 with ``theta`` set to the noisy threshold and a
height of ``max_depth + 1``, and one sized draw per level consumes the
stream exactly as one scalar draw per popped node.  So the demo grows
:class:`~repro.spatial.level.BoxLevel` arrays through SimpleTree's loop,
:func:`~repro.core.simpletree.grow_simpletree`, and emits its
``simpletree.level`` spans.
"""

from __future__ import annotations

import numpy as np

from ..core.analysis import check_integer
from ..core.level import preorder
from ..core.simpletree import grow_simpletree
from ..mechanisms.laplace import laplace_noise
from ..mechanisms.rng import RngLike, ensure_rng
from ..spatial.dataset import SpatialDataset
from ..spatial.histogram_tree import HistogramTree
from ..spatial.level import BoxLevel, PointLabels
from ..spatial.quadtree import _flat_histogram

__all__ = ["binary_svt_decomposition"]


def binary_svt_decomposition(
    dataset: SpatialDataset,
    epsilon: float,
    theta: float,
    dims_per_split: int | None = None,
    max_depth: int = 24,
    rng: RngLike = None,
) -> HistogramTree:
    """Build a quadtree with the (broken) binary-SVT split rule.

    Uses ``lam = 2/epsilon`` — the scale Claim 1 asserts is sufficient.
    **Warning:** by Lemma 5.1 this procedure does *not* satisfy
    ε-differential privacy; it is provided to reproduce the paper's
    analysis only.  Counts attached to the returned tree are the exact
    counts (the structure itself is the privacy-relevant release here).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    check_integer("max_depth", max_depth, 0)
    root = BoxLevel.root(dataset.domain, dims_per_split)
    gen = ensure_rng(rng)
    lam = 2.0 / epsilon
    noisy_theta = theta + laplace_noise(lam, rng=gen)
    labels = PointLabels(dataset.points)
    grow_simpletree(
        root, lam, noisy_theta, max_depth + 1, gen, labels.scores, labels.descend
    )
    layout = preorder(root)
    counts = np.concatenate(labels.counts).astype(float)
    return _flat_histogram(root, layout, counts[layout.bfs]).to_tree()
