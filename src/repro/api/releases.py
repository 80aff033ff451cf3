"""Concrete :class:`~repro.api.Release` artifacts for every workload.

Spatial releases answer ``query(box)`` range counts; sequence releases
answer ``query(codes)`` string frequencies.  Serialization reuses the
published schemas of :mod:`repro.spatial.serialize` and
:mod:`repro.sequence.serialize` where they exist (tree and PST payloads are
byte-compatible with those modules), and adds plain grid payloads for the
grid-shaped baselines.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..baselines.ag import AdaptiveGrid
from ..baselines.grid import UniformGrid
from ..baselines.ngram import NGramModel
from ..domains.box import Box, RangeCounter
from ..sequence.alphabet import Alphabet
from ..sequence.flat import FlatPST
from ..sequence.serialize import pst_from_dict, pst_to_dict
from ..spatial.histogram_tree import HistogramTree
from ..spatial.serialize import flat_to_dict, flat_to_json_text, tree_from_dict
from .base import Release

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spatial.flat import FlatHistogram

__all__ = [
    "AdaptiveGridRelease",
    "GridRelease",
    "NGramRelease",
    "SequenceRelease",
    "SpatialRelease",
    "SpatialTreeRelease",
]


class SpatialRelease(Release, RangeCounter):
    """Base of the spatial artifacts: ``query`` is a range count.

    Each kind answers through its synopsis's one engine.  Typed queries
    (:class:`~repro.queries.RangeCount`, :class:`~repro.queries.PointCount`,
    :class:`~repro.queries.Marginal1D`) all compile to boxes and answer
    through :meth:`range_count_many` via :meth:`~repro.api.Release.answer`.
    """

    @property
    def query_domain(self) -> Box:
        """The released domain typed queries validate against."""
        raise NotImplementedError

    query = RangeCounter.range_count
    query_many = RangeCounter.range_count_many


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

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
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
    return _grid_from_parts(data["low"], data["high"], data["shape"], data["counts"])


def _finite_floats(values, what: str) -> np.ndarray:
    """A grid's ``values`` as floats: a loaded float array, or a decoded
    JSON list of ints and floats (a bool is not a number), every entry
    finite.  Raises ``ValueError`` naming ``what`` otherwise."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "f":
            raise ValueError(f"grid {what} must be floats, got {values.dtype}")
        array = np.asarray(values)
    else:
        if not isinstance(values, list):
            raise ValueError(
                f"grid {what} must be a list of numbers, got {type(values).__name__}"
            )
        if not set(map(type, values)) <= {int, float}:
            bad = next(v for v in values if type(v) not in (int, float))
            raise ValueError(f"grid {what} must be numbers, got {bad!r}")
        try:
            array = np.array(values, dtype=float)
        except OverflowError:
            raise ValueError(f"grid {what} hold a number past the float range") from None
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"grid {what} must be finite, got {array[~finite][0].item()!r}")
    return array


def _grid_from_parts(low, high, shape, counts) -> UniformGrid:
    """The grid both decoders build, checked: ``shape`` must be a list of
    positive integers whose product is the number of ``counts``, the
    counts finite floats, and ``low`` and ``high`` ``len(shape)`` finite
    numbers each (``Box`` then requires ``low < high``)."""
    counts = _finite_floats(counts, "counts")
    if not (
        isinstance(shape, list)
        and all(type(n) is int and n > 0 for n in shape)  # bool is not a size
        and math.prod(shape) == counts.size
    ):
        raise ValueError(
            f"grid shape must be a list of positive integers whose product is "
            f"the number of counts ({counts.size}), got {shape!r}"
        )
    lows, highs = _finite_floats(low, "bounds"), _finite_floats(high, "bounds")
    if not lows.shape == highs.shape == (len(shape),):
        raise ValueError(
            f"grid bounds must hold {len(shape)} numbers per side, got "
            f"{lows.size} and {highs.size}"
        )
    # Built from the values as given, so a decoded grid writes its bytes back.
    return UniformGrid(domain=Box(tuple(low), tuple(high)), counts=counts.reshape(shape))


def _adaptive_grid_from_parts(
    level1: UniformGrid, indices, subgrids: list[UniformGrid]
) -> AdaptiveGrid:
    """The AG synopsis both decoders build, checked: ``indices`` must be a
    list naming one distinct level-1 cell per subgrid."""
    if not isinstance(indices, list) or len(indices) != len(subgrids):
        raise ValueError(f"AG subgrid indices must be a list of {len(subgrids)} cells")
    cells: dict[tuple[int, ...], UniformGrid] = {}
    for index, grid in zip(indices, subgrids):
        if not (
            isinstance(index, list)
            and len(index) == len(level1.shape)
            and all(type(i) is int and 0 <= i < n for i, n in zip(index, level1.shape))
        ):
            raise ValueError(f"AG subgrid index {index!r} names no level-1 cell")
        if tuple(index) in cells:
            raise ValueError(f"two AG subgrids refine the level-1 cell {index}")
        cells[tuple(index)] = grid
    return AdaptiveGrid(level1=level1, subgrids=cells)


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

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        return self.grid.range_count_arrays(q_lows, q_highs)

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

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        return self.synopsis.range_count_arrays(q_lows, q_highs)

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
        entries = payload.get("subgrids", [])
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValueError(f"AG subgrids must be a list of objects, got {entries!r}")
        synopsis = _adaptive_grid_from_parts(
            _grid_from_dict(payload["level1"]),
            [entry.get("index") for entry in entries],
            [_grid_from_dict(entry["grid"]) for entry in entries],
        )
        return cls(synopsis, method=method, epsilon_spent=epsilon_spent)


class SequenceRelease(Release):
    """A released private Markov model (the modified-PrivTree PST).

    Holds one :class:`~repro.sequence.flat.FlatPST`: the arrays the fit
    writes, the JSON decoder fills or the v2 loader maps.
    ``query(codes)`` estimates how many input sequences contain the coded
    string; mining and generation run on the same arrays.
    """

    kind = "sequence-pst"

    def __init__(self, flat: FlatPST, *, method: str, epsilon_spent: float) -> None:
        super().__init__(method=method, epsilon_spent=epsilon_spent)
        self._flat = flat

    def flat(self) -> FlatPST:
        """The released PST."""
        return self._flat

    @property
    def size(self) -> int:
        return self._flat.size

    @property
    def height(self) -> int:
        """Longest released context length."""
        return self._flat.height

    @property
    def query_domain(self) -> Alphabet:
        return self._flat.alphabet

    def has_start_context(self) -> bool:
        """Whether the released tree carries sequence-start ($) statistics."""
        flat = self._flat
        return bool(flat.child_table[0, flat.alphabet.start_code] >= 0)

    def query(self, codes: Sequence[int]) -> float:
        """Estimated frequency of the coded string (Equation (12))."""
        return self._flat.string_frequency(codes)

    def query_many(self, queries: Sequence[Sequence[int]]) -> np.ndarray:
        """Estimated frequencies for a whole batch of coded strings."""
        return self._flat.frequency_many(queries)

    def top_k_strings(self, k: int, max_length: int = 12):
        """The model's ``k`` most frequent strings (mining task, §6.2)."""
        return self._flat.top_k_strings(k, max_length=max_length)

    def sample_sequence(self, rng=None, max_length: int | None = None):
        """Draw one synthetic sequence from the model."""
        return self._flat.sample_sequence(rng, max_length)

    def sample_dataset(self, n: int, rng=None, max_length: int | None = None):
        """Draw ``n`` synthetic sequences (generation task, §6.2).

        Batched lockstep generation — identically distributed to ``n``
        calls of :meth:`sample_sequence`, but a seed yields a different
        (equally valid) sample because the RNG stream interleaves across
        sequences.
        """
        return self._flat.sample_dataset(n, rng=rng, max_length=max_length)

    def _payload(self) -> dict[str, Any]:
        return pst_to_dict(self._flat)

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
        grams = payload.get("grams", [])
        try:
            lengths = np.array([len(entry["gram"]) for entry in grams], dtype=np.int64)
            codes = np.array(
                [int(c) for entry in grams for c in entry["gram"]], dtype=np.int64
            )
            counts = np.array([float(entry["count"]) for entry in grams])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(
                "n-gram grams must be objects with a 'gram' list of int64 "
                f"codes and a float 'count': {exc!r}"
            ) from None
        model = NGramModel.from_arrays(
            Alphabet(tuple(payload["alphabet"])),
            int(payload["n_max"]),
            int(payload["l_top"]),
            lengths,
            codes,
            counts,
        )
        return cls(model, method=method, epsilon_spent=epsilon_spent)
