"""Concrete :class:`~repro.api.Release` artifacts for every workload.

Spatial releases answer ``query(box)`` range counts; sequence releases
answer ``query(codes)`` string frequencies.  Serialization reuses the
published schemas of :mod:`repro.spatial.serialize` and
:mod:`repro.sequence.serialize` where they exist (tree and PST payloads are
byte-compatible with those modules), and adds plain grid payloads for the
grid-shaped baselines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..baselines.ag import AdaptiveGrid
from ..baselines.grid import UniformGrid
from ..baselines.ngram import NGramModel
from ..domains.box import Box
from ..sequence.alphabet import Alphabet
from ..sequence.pst import PredictionSuffixTree
from ..sequence.serialize import pst_from_dict, pst_to_dict
from ..spatial.histogram_tree import HistogramTree
from ..spatial.serialize import flat_to_dict, flat_to_json_text, tree_from_dict
from .base import Release

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sequence.flat import FlatPST
    from ..spatial.flat import FlatHistogram

__all__ = [
    "AdaptiveGridRelease",
    "GridRelease",
    "NGramRelease",
    "SequenceRelease",
    "SpatialRelease",
    "SpatialTreeRelease",
]


class SpatialRelease(Release):
    """Base of the spatial artifacts: ``query`` is a range count.

    Typed queries (:class:`~repro.queries.RangeCount`,
    :class:`~repro.queries.PointCount`, :class:`~repro.queries.Marginal1D`)
    all compile to boxes and answer through :meth:`range_count_many` via
    :meth:`~repro.api.Release.answer`.
    """

    @property
    def query_domain(self) -> Box:
        """The released domain typed queries validate against."""
        raise NotImplementedError

    def query(self, box: Box) -> float:
        """The noisy number of points inside ``box``."""
        return self.range_count(box)

    def range_count(self, box: Box) -> float:
        """Alias of :meth:`query` (the historical synopsis surface)."""
        raise NotImplementedError

    def range_count_many(self, boxes: Sequence[Box]) -> np.ndarray:
        """Answer a whole workload; subclasses override with batched engines."""
        return np.array([self.range_count(box) for box in boxes])

    def query_many(self, queries: Sequence[Box]) -> np.ndarray:
        """Uniform batch surface: a spatial batch is a box workload."""
        return self.range_count_many(queries)


class SpatialTreeRelease(SpatialRelease):
    """A released hierarchical synopsis (PrivTree, SimpleTree, k-d tree).

    Holds one :class:`HistogramTree`: the one given, or ``flat.to_tree()``
    for a :class:`~repro.spatial.flat.FlatHistogram` (the fits write the
    flat arrays directly, and the v2 binary artifacts hand over
    mmap-backed ones).  Queries, statistics and the JSON payload run on
    the tree's flat arrays.
    """

    kind = "spatial-tree"

    def __init__(
        self,
        tree: HistogramTree | None = None,
        *,
        method: str,
        epsilon_spent: float,
        flat: "FlatHistogram | None" = None,
    ) -> None:
        super().__init__(method=method, epsilon_spent=epsilon_spent)
        if tree is None and flat is None:
            raise ValueError("SpatialTreeRelease needs a tree or a flat synopsis")
        self.tree = tree if tree is not None else flat.to_tree()

    def flat(self) -> "FlatHistogram":
        """The flat synopsis engine."""
        return self.tree.flat()

    @property
    def size(self) -> int:
        return self.tree.size

    @property
    def leaf_count(self) -> int:
        """Number of leaves of the released tree."""
        return self.tree.leaf_count

    @property
    def height(self) -> int:
        """Height of the released tree."""
        return self.tree.height

    @property
    def query_domain(self) -> Box:
        return self.tree.domain

    def range_count(self, box: Box) -> float:
        return self.flat().range_count(box)

    def range_count_many(self, boxes: Sequence[Box]) -> np.ndarray:
        """Vectorized workload evaluation via the flat synopsis."""
        return self.flat().range_count_many(boxes)

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        """Columnar workload evaluation (packed bound matrices, no Boxes)."""
        return self.flat().range_count_arrays(q_lows, q_highs)

    def warm(self) -> None:
        """Nothing to compile: the tree is its flat arrays."""
        self.flat()

    def to_grid(self, shape: tuple[int, ...]) -> np.ndarray:
        """Rasterize the synopsis (see :meth:`HistogramTree.to_grid`)."""
        return self.tree.to_grid(shape)

    def _payload(self) -> dict[str, Any]:
        return flat_to_dict(self.flat())

    def _payload_text(self) -> str:
        return flat_to_json_text(self.flat())

    @classmethod
    def _from_payload(
        cls, payload: dict[str, Any], *, method: str, epsilon_spent: float
    ) -> "SpatialTreeRelease":
        return cls(tree_from_dict(payload), method=method, epsilon_spent=epsilon_spent)


def _grid_to_dict(grid: UniformGrid) -> dict[str, Any]:
    return {
        "low": list(grid.domain.low),
        "high": list(grid.domain.high),
        "shape": list(grid.shape),
        "counts": [float(v) for v in grid.counts.ravel()],
    }


def _grid_from_dict(data: Mapping[str, Any]) -> UniformGrid:
    domain = Box(tuple(data["low"]), tuple(data["high"]))
    counts = np.asarray(data["counts"], dtype=float).reshape(tuple(data["shape"]))
    return UniformGrid(domain=domain, counts=counts)


class GridRelease(SpatialRelease):
    """A released flat grid of noisy cell estimates (UG, Privelet, ...).

    ``meta`` carries method-specific extras that survive the round-trip —
    DAWA's bucket boundaries, Hierarchy's level structure — without
    changing how queries are answered (always from the cell grid).
    """

    kind = "spatial-grid"

    def __init__(
        self,
        grid: UniformGrid,
        *,
        method: str,
        epsilon_spent: float,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(method=method, epsilon_spent=epsilon_spent)
        self.grid = grid
        self.meta = dict(meta or {})

    @property
    def size(self) -> int:
        return self.grid.n_cells

    @property
    def query_domain(self) -> Box:
        return self.grid.domain

    def range_count(self, box: Box) -> float:
        return self.grid.range_count(box)

    def _payload(self) -> dict[str, Any]:
        out = _grid_to_dict(self.grid)
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def _from_payload(
        cls, payload: dict[str, Any], *, method: str, epsilon_spent: float
    ) -> "GridRelease":
        return cls(
            _grid_from_dict(payload),
            method=method,
            epsilon_spent=epsilon_spent,
            meta=payload.get("meta"),
        )


class AdaptiveGridRelease(SpatialRelease):
    """The released AG synopsis: level-1 grid plus refined subgrids."""

    kind = "spatial-adaptive-grid"

    def __init__(
        self, synopsis: AdaptiveGrid, *, method: str, epsilon_spent: float
    ) -> None:
        super().__init__(method=method, epsilon_spent=epsilon_spent)
        self.synopsis = synopsis

    @property
    def size(self) -> int:
        return self.synopsis.n_cells

    @property
    def query_domain(self) -> Box:
        return self.synopsis.level1.domain

    def range_count(self, box: Box) -> float:
        return self.synopsis.range_count(box)

    def _payload(self) -> dict[str, Any]:
        return {
            "level1": _grid_to_dict(self.synopsis.level1),
            "subgrids": [
                {"index": list(index), "grid": _grid_to_dict(grid)}
                for index, grid in sorted(self.synopsis.subgrids.items())
            ],
        }

    @classmethod
    def _from_payload(
        cls, payload: dict[str, Any], *, method: str, epsilon_spent: float
    ) -> "AdaptiveGridRelease":
        synopsis = AdaptiveGrid(
            level1=_grid_from_dict(payload["level1"]),
            subgrids={
                tuple(int(i) for i in entry["index"]): _grid_from_dict(entry["grid"])
                for entry in payload.get("subgrids", [])
            },
        )
        return cls(synopsis, method=method, epsilon_spent=epsilon_spent)


class SequenceRelease(Release):
    """A released private Markov model (the modified-PrivTree PST).

    ``query(codes)`` estimates how many input sequences contain the coded
    string; generation and mining run on the compiled
    :class:`~repro.sequence.flat.FlatPST` engine (cached on the model), the
    recursive walks remain available on ``release.model``.
    """

    kind = "sequence-pst"

    def __init__(
        self,
        model: PredictionSuffixTree | None = None,
        *,
        method: str,
        epsilon_spent: float,
        flat: "FlatPST | None" = None,
    ) -> None:
        super().__init__(method=method, epsilon_spent=epsilon_spent)
        if model is None and flat is None:
            raise ValueError("SequenceRelease needs a model or a flat engine")
        self._model = model
        self._flat = flat

    @property
    def model(self) -> PredictionSuffixTree:
        """The pointer-based PST (materialized from the flat form on demand)."""
        if self._model is None:
            self._model = self._flat.to_pst()
            self._model._flat = self._flat  # share the compiled engine
        return self._model

    def flat(self) -> "FlatPST":
        """The compiled flat PST engine (cached)."""
        if self._flat is None:
            self._flat = self._model.flat()
        return self._flat

    @property
    def size(self) -> int:
        if self._model is not None:
            return self._model.size
        return self._flat.size

    @property
    def height(self) -> int:
        """Longest released context length."""
        if self._model is not None:
            return self._model.height
        return self._flat.height

    @property
    def query_domain(self) -> Alphabet:
        if self._model is not None:
            return self._model.alphabet
        return self._flat.alphabet

    def has_start_context(self) -> bool:
        """Whether the released tree carries sequence-start ($) statistics.

        Checked on the flat child table so an mmap-loaded release never
        materializes the pointer model just to answer a capability probe.
        """
        flat = self.flat()
        return bool(flat.child_table[0, flat.alphabet.start_code] >= 0)

    def query(self, codes: Sequence[int]) -> float:
        """Estimated frequency of the coded string (flat engine; numerically
        identical to ``model.string_frequency``)."""
        return self.flat().string_frequency(codes)

    def query_many(self, queries: Sequence[Sequence[int]]) -> np.ndarray:
        """Estimated frequencies for a whole batch of coded strings."""
        return self.flat().frequency_many(queries)

    def warm(self) -> None:
        """Compile (and cache) the flat PST engine."""
        self.flat()

    def top_k_strings(self, k: int, max_length: int = 12):
        """The model's ``k`` most frequent strings (mining task, §6.2).

        Batched frequency scoring; explores and returns exactly what the
        recursive ``model.top_k_strings`` would.
        """
        return self.flat().top_k_strings(k, max_length=max_length)

    def sample_sequence(self, rng=None, max_length: int | None = None):
        """Draw one synthetic sequence from the model."""
        return self.model.sample_sequence(rng, max_length)

    def sample_dataset(self, n: int, rng=None, max_length: int | None = None):
        """Draw ``n`` synthetic sequences (generation task, §6.2).

        Batched lockstep generation — identically distributed to the
        per-sequence loop, but a seed yields a different (equally valid)
        sample because the RNG stream interleaves across sequences.
        """
        return self.flat().sample_dataset(n, rng=rng, max_length=max_length)

    def _payload(self) -> dict[str, Any]:
        return pst_to_dict(self.model)

    @classmethod
    def _from_payload(
        cls, payload: dict[str, Any], *, method: str, epsilon_spent: float
    ) -> "SequenceRelease":
        return cls(pst_from_dict(payload), method=method, epsilon_spent=epsilon_spent)


class NGramRelease(Release):
    """The released n-gram baseline model."""

    kind = "sequence-ngram"

    def __init__(self, model: NGramModel, *, method: str, epsilon_spent: float) -> None:
        super().__init__(method=method, epsilon_spent=epsilon_spent)
        self.model = model

    @property
    def size(self) -> int:
        return len(self.model.counts)

    @property
    def query_domain(self) -> Alphabet:
        return self.model.alphabet

    def query(self, codes: Sequence[int]) -> float:
        """Estimated frequency of the coded string."""
        return self.model.string_frequency(tuple(int(c) for c in codes))

    def warm(self) -> None:
        """Compile the flat n-gram engine when the model supports it."""
        try:
            self.model.flat()
        except OverflowError:
            pass  # uncompilable contexts: sampling falls back to the loop

    def top_k_strings(self, k: int, max_length: int = 12):
        """The model's ``k`` most frequent strings."""
        return self.model.top_k_strings(k, max_length=max_length)

    def sample_sequence(self, rng=None, max_length: int | None = None):
        """Draw one synthetic sequence from the model."""
        return self.model.sample_sequence(rng, max_length)

    def sample_dataset(self, n: int, rng=None, max_length: int | None = None):
        """Draw ``n`` synthetic sequences.

        Batched lockstep generation on the compiled :class:`~repro.
        baselines.ngram.FlatNGram` (identically distributed to the scalar
        loop, different fixed-seed stream interleaving); falls back to the
        per-sequence loop when the model's contexts cannot be compiled to
        packed ``int64`` keys.
        """
        try:
            engine = self.model.flat()
        except OverflowError:
            return self.model.sample_dataset(n, rng=rng, max_length=max_length)
        return engine.sample_dataset(n, rng=rng, max_length=max_length)

    def _payload(self) -> dict[str, Any]:
        return {
            "alphabet": list(self.model.alphabet.symbols),
            "n_max": self.model.n_max,
            "l_top": self.model.l_top,
            "grams": [
                {"gram": list(gram), "count": float(count)}
                for gram, count in sorted(self.model.counts.items())
            ],
        }

    @classmethod
    def _from_payload(
        cls, payload: dict[str, Any], *, method: str, epsilon_spent: float
    ) -> "NGramRelease":
        model = NGramModel(
            alphabet=Alphabet(tuple(payload["alphabet"])),
            n_max=int(payload["n_max"]),
            l_top=int(payload["l_top"]),
            counts={
                tuple(int(c) for c in entry["gram"]): float(entry["count"])
                for entry in payload.get("grams", [])
            },
        )
        return cls(model, method=method, epsilon_spent=epsilon_spent)
