"""Registered estimators wrapping every method of the paper.

Each estimator is a frozen dataclass config plus a ``fit`` that (1) debits
the accountant by exactly ``epsilon`` — recording the method's internal
budget split as labelled ledger entries — and (2) delegates to the shared
implementation the legacy free functions also use, so results are
bit-identical to the historical surface under the same rng.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..baselines.ag import AG_ALPHA, _ag_histogram
from ..baselines.dawa import DAWA_RHO, _dawa_histogram
from ..baselines.hierarchy import _hierarchy_histogram
from ..baselines.kdtree import _kdtree_flat
from ..baselines.ngram import ngram_model
from ..baselines.privelet import _privelet_histogram
from ..baselines.ug import _ug_histogram
from ..core.privtree import DEFAULT_MAX_DEPTH
from ..federated.driver import federated_privtree_histogram, shard_dataset
from ..mechanisms.accountant import PrivacyAccountant
from ..mechanisms.rng import RngLike, ensure_rng
from ..sequence.dataset import SequenceDataset
from ..sequence.private_pst import private_pst
from ..spatial.dataset import SpatialDataset
from ..spatial.quadtree import _privtree_flat, _simpletree_flat
from .base import Estimator
from .registry import register
from .releases import (
    AdaptiveGridRelease,
    GridRelease,
    NGramRelease,
    SequenceRelease,
    SpatialTreeRelease,
)

__all__ = [
    "AGEstimator",
    "DawaEstimator",
    "FederatedPrivTreeEstimator",
    "HierarchyEstimator",
    "KDTreeEstimator",
    "NGramEstimator",
    "PSTEstimator",
    "PriveletEstimator",
    "PrivTreeEstimator",
    "SimpleTreeEstimator",
    "UGEstimator",
]


@register
@dataclass(frozen=True)
class PrivTreeEstimator(Estimator):
    """Algorithm 2 + §3.4 noisy leaf counts — the paper's main method."""

    name = "privtree"
    kind = "spatial"

    epsilon: float = 1.0
    theta: float = 0.0
    tree_fraction: float = 0.5
    dims_per_split: int | None = None
    tuples_per_individual: int = 1
    count_mechanism: str = "laplace"
    max_depth: int | None = DEFAULT_MAX_DEPTH

    def fit(
        self,
        dataset: SpatialDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> SpatialTreeRelease:
        acct = self._accountant(accountant)
        with acct.transaction():
            flat = _privtree_flat(
                dataset,
                self.epsilon,
                dims_per_split=self.dims_per_split,
                theta=self.theta,
                tree_fraction=self.tree_fraction,
                tuples_per_individual=self.tuples_per_individual,
                count_mechanism=self.count_mechanism,
                rng=ensure_rng(rng),
                max_depth=self.max_depth,
                accountant=acct,
            )
        return SpatialTreeRelease(flat=flat, method=self.name, epsilon_spent=self.epsilon)


@register
@dataclass(frozen=True)
class FederatedPrivTreeEstimator(Estimator):
    """PrivTree fitted over ``n_shards`` blinded collectors (PrivCount-style).

    Same decomposition, same budget split, same noise stream as
    :class:`PrivTreeEstimator` — the release is bit-identical to the
    centralized fit under the same ``rng`` — but the per-node counts are
    recovered by secure aggregation of additively blinded shard shares, so
    no party ever holds a raw per-shard histogram.  ``fit`` shards the given
    dataset round-robin across in-process collectors; distributed callers
    build their own :class:`~repro.federated.ShardCollector` ring and drive
    :class:`~repro.federated.FederatedPrivTree` directly.
    """

    name = "privtree_federated"
    kind = "spatial"

    epsilon: float = 1.0
    n_shards: int = 3
    theta: float = 0.0
    tree_fraction: float = 0.5
    dims_per_split: int | None = None
    tuples_per_individual: int = 1
    count_mechanism: str = "laplace"
    max_depth: int | None = DEFAULT_MAX_DEPTH
    #: Root seed of the pairwise blinding streams.  Results do not depend on
    #: it (masks cancel exactly); it only decorrelates the shares.
    blinding_seed: int = 0

    def fit(
        self,
        dataset: SpatialDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> SpatialTreeRelease:
        acct = self._accountant(accountant)
        with acct.transaction():
            tree = federated_privtree_histogram(
                shard_dataset(dataset, self.n_shards),
                self.epsilon,
                dims_per_split=self.dims_per_split,
                theta=self.theta,
                tree_fraction=self.tree_fraction,
                tuples_per_individual=self.tuples_per_individual,
                count_mechanism=self.count_mechanism,
                rng=ensure_rng(rng),
                max_depth=self.max_depth,
                accountant=acct,
                blinding_seed=self.blinding_seed,
                label_prefix=self.name,
            )
        return SpatialTreeRelease(tree, method=self.name, epsilon_spent=self.epsilon)


@register
@dataclass(frozen=True)
class SimpleTreeEstimator(Estimator):
    """Algorithm 1: fixed-height noisy decomposition (scale ``h/ε``)."""

    name = "simpletree"
    kind = "spatial"

    epsilon: float = 1.0
    height: int = 8
    theta: float = 0.0
    dims_per_split: int | None = None

    def fit(
        self,
        dataset: SpatialDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> SpatialTreeRelease:
        acct = self._accountant(accountant)
        with acct.transaction():
            flat = _simpletree_flat(
                dataset,
                self.epsilon,
                height=self.height,
                theta=self.theta,
                dims_per_split=self.dims_per_split,
                rng=ensure_rng(rng),
                accountant=acct,
            )
        return SpatialTreeRelease(flat=flat, method=self.name, epsilon_spent=self.epsilon)


@register
@dataclass(frozen=True)
class UGEstimator(Estimator):
    """The uniform-grid baseline (Qardaji et al.)."""

    name = "ug"
    kind = "spatial"

    epsilon: float = 1.0
    size_factor: float = 1.0

    def fit(
        self,
        dataset: SpatialDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> GridRelease:
        acct = self._accountant(accountant)
        with acct.transaction():
            acct.spend(self.epsilon, "ug/cell counts")
            grid = _ug_histogram(
                dataset, self.epsilon, size_factor=self.size_factor, rng=ensure_rng(rng)
            )
        return GridRelease(grid, method=self.name, epsilon_spent=self.epsilon)


@register
@dataclass(frozen=True)
class AGEstimator(Estimator):
    """The two-level adaptive-grid baseline (2-d only)."""

    name = "ag"
    kind = "spatial"

    epsilon: float = 1.0
    alpha: float = AG_ALPHA
    size_factor: float = 1.0

    def fit(
        self,
        dataset: SpatialDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> AdaptiveGridRelease:
        acct = self._accountant(accountant)
        with acct.transaction():
            acct.spend(self.alpha * self.epsilon, "ag/level-1 grid")
            acct.spend((1.0 - self.alpha) * self.epsilon, "ag/level-2 grids")
            synopsis = _ag_histogram(
                dataset,
                self.epsilon,
                alpha=self.alpha,
                size_factor=self.size_factor,
                rng=ensure_rng(rng),
            )
        return AdaptiveGridRelease(synopsis, method=self.name, epsilon_spent=self.epsilon)


@register
@dataclass(frozen=True)
class HierarchyEstimator(Estimator):
    """The fixed-hierarchy baseline with constrained inference."""

    name = "hierarchy"
    kind = "spatial"

    epsilon: float = 1.0
    height: int = 3
    leaf_cells_exponent: int = 6

    def fit(
        self,
        dataset: SpatialDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> GridRelease:
        acct = self._accountant(accountant)
        levels = self.height - 1
        with acct.transaction():
            for level in range(1, levels + 1):
                acct.spend(self.epsilon / levels, f"hierarchy/level {level}")
            synopsis = _hierarchy_histogram(
                dataset,
                self.epsilon,
                height=self.height,
                leaf_cells_exponent=self.leaf_cells_exponent,
                rng=ensure_rng(rng),
            )
        return GridRelease(
            synopsis.leaf_grid,
            method=self.name,
            epsilon_spent=self.epsilon,
            meta={"levels": synopsis.levels, "branchings": list(synopsis.branchings)},
        )


@register
@dataclass(frozen=True)
class DawaEstimator(Estimator):
    """The DAWA-lite baseline: private partition + bucket counts."""

    name = "dawa"
    kind = "spatial"

    epsilon: float = 1.0
    cells_per_dim: int | None = None
    rho: float = DAWA_RHO

    def fit(
        self,
        dataset: SpatialDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> GridRelease:
        acct = self._accountant(accountant)
        with acct.transaction():
            acct.spend(self.rho * self.epsilon, "dawa/partition")
            acct.spend((1.0 - self.rho) * self.epsilon, "dawa/bucket counts")
            synopsis = _dawa_histogram(
                dataset,
                self.epsilon,
                cells_per_dim=self.cells_per_dim,
                rho=self.rho,
                rng=ensure_rng(rng),
            )
        return GridRelease(
            synopsis.grid,
            method=self.name,
            epsilon_spent=self.epsilon,
            meta={"boundaries": [int(b) for b in synopsis.boundaries]},
        )


@register
@dataclass(frozen=True)
class PriveletEstimator(Estimator):
    """The Privelet baseline: noisy Haar wavelet coefficients."""

    name = "privelet"
    kind = "spatial"

    epsilon: float = 1.0
    cells_per_dim: int | None = None

    def fit(
        self,
        dataset: SpatialDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> GridRelease:
        acct = self._accountant(accountant)
        with acct.transaction():
            acct.spend(self.epsilon, "privelet/wavelet coefficients")
            synopsis = _privelet_histogram(
                dataset,
                self.epsilon,
                cells_per_dim=self.cells_per_dim,
                rng=ensure_rng(rng),
            )
        return GridRelease(synopsis.grid, method=self.name, epsilon_spent=self.epsilon)


@register
@dataclass(frozen=True)
class KDTreeEstimator(Estimator):
    """The private k-d tree baseline (exponential-mechanism splits)."""

    name = "kdtree"
    kind = "spatial"

    epsilon: float = 1.0
    height: int = 7
    split_fraction: float = 0.3

    def fit(
        self,
        dataset: SpatialDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> SpatialTreeRelease:
        acct = self._accountant(accountant)
        with acct.transaction():
            acct.spend(self.split_fraction * self.epsilon, "kdtree/split positions")
            acct.spend((1.0 - self.split_fraction) * self.epsilon, "kdtree/leaf counts")
            flat = _kdtree_flat(
                dataset,
                self.epsilon,
                height=self.height,
                split_fraction=self.split_fraction,
                rng=ensure_rng(rng),
            )
            # Inside the transaction: a cut that leaves an empty extent is
            # refused by the release's bounds check, and refunded.
            return SpatialTreeRelease(
                flat=flat, method=self.name, epsilon_spent=self.epsilon
            )


@register
@dataclass(frozen=True)
class PSTEstimator(Estimator):
    """The modified PrivTree for Markov models (§4.2) — name ``"pst"``."""

    name = "pst"
    kind = "sequence"

    epsilon: float = 1.0
    l_top: int = 20
    theta: float = 0.0
    max_depth: int | None = DEFAULT_MAX_DEPTH

    def fit(
        self,
        dataset: SequenceDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> SequenceRelease:
        acct = self._accountant(accountant)
        with acct.transaction():
            flat = private_pst(
                dataset,
                self.epsilon,
                self.l_top,
                theta=self.theta,
                rng=ensure_rng(rng),
                max_depth=self.max_depth,
                accountant=acct,
            )
        return SequenceRelease(flat, method=self.name, epsilon_spent=self.epsilon)


@register
@dataclass(frozen=True)
class NGramEstimator(Estimator):
    """The n-gram sequence baseline (Chen et al.)."""

    name = "ngram"
    kind = "sequence"

    epsilon: float = 1.0
    l_top: int = 20
    n_max: int = 5
    #: Optional precomputed :func:`repro.baselines.count_grams` cache so an
    #: ε sweep over one dataset counts grams only once (not privacy-relevant:
    #: the exact counts never leave the fit).
    gram_counts: Mapping[tuple[int, ...], int] | None = field(
        default=None, repr=False, compare=False
    )

    def fit(
        self,
        dataset: SequenceDataset,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: RngLike = None,
    ) -> NGramRelease:
        acct = self._accountant(accountant)
        with acct.transaction():
            for level in range(1, self.n_max + 1):
                acct.spend(self.epsilon / self.n_max, f"ngram/level {level}")
            model = ngram_model(
                dataset,
                self.epsilon,
                self.l_top,
                n_max=self.n_max,
                rng=ensure_rng(rng),
                gram_counts=self.gram_counts,
            )
        return NGramRelease(model, method=self.name, epsilon_spent=self.epsilon)
