"""The two protocols of the unified API: :class:`Estimator` and :class:`Release`.

One engine, many workloads (the paper's framing, made literal): an
*estimator* is a configured private-release method — PrivTree, a grid
baseline, a sequence model — whose ``fit(dataset, *, accountant, rng)``
consumes privacy budget and returns a *release*, the publishable artifact.
Releases answer queries, know what they cost, and round-trip through plain
JSON so a curator can ship them to consumers who do not have this package's
internals.

Every estimator debits a :class:`~repro.mechanisms.PrivacyAccountant` by
exactly its configured ``epsilon``; composed pipelines pass one shared
accountant through several ``fit`` calls and read the §3.4 / §4.2 budget
splits back as explicit ledger entries.
"""

from __future__ import annotations

import abc
import dataclasses
import json
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from .._io import atomic_write_text
from ..mechanisms.accountant import PrivacyAccountant

__all__ = ["Estimator", "Release", "release_from_json", "load_release", "save_release"]

_FORMAT = "repro.release"
_VERSION = 1

#: kind -> Release subclass, populated by ``Release.__init_subclass__``.
_RELEASE_KINDS: dict[str, type["Release"]] = {}


class Release(abc.ABC):
    """A published differentially private artifact.

    Uniform surface across workloads: :meth:`answer` evaluates a typed
    :class:`~repro.queries.Workload` in one vectorized dispatch (validated
    against :attr:`query_domain`), ``query(...)``/``query_many`` keep the
    legacy scalar surface (range counts for spatial synopses, string
    frequencies for sequence models) with bit-identical results, ``size``
    counts released components, ``epsilon_spent`` records the budget the
    artifact cost, and ``to_json`` / :func:`release_from_json` round-trip
    the artifact through a plain-JSON envelope (``to_json_text`` writes
    that envelope's JSON text).
    """

    #: Serialization tag; each concrete release declares a unique one.
    kind: ClassVar[str] = ""

    def __init__(self, *, method: str, epsilon_spent: float) -> None:
        self.method = method
        self.epsilon_spent = float(epsilon_spent)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            existing = _RELEASE_KINDS.get(cls.kind)
            if existing is not None and existing is not cls:
                raise ValueError(f"duplicate release kind {cls.kind!r}")
            _RELEASE_KINDS[cls.kind] = cls

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of released components (nodes, cells, grams, ...)."""

    @abc.abstractmethod
    def query(self, *args: Any, **kwargs: Any) -> float:
        """Answer the release's native query type.

        Legacy scalar surface; prefer :meth:`answer` with a typed
        :class:`~repro.queries.Workload` for batches.
        """

    def query_many(self, queries: Any) -> np.ndarray:
        """Answer a batch of native queries as a ``float64`` vector.

        Legacy batch surface (see :meth:`answer` for the typed path).
        Subclasses with compiled batch engines override this; the default
        loops over :meth:`query` into a preallocated output.  Overrides
        **must** return ``float64`` — the HTTP layer JSON-serializes
        whatever dtype comes back, and only ``float64`` round-trips
        losslessly through the wire.
        """
        queries = list(queries)
        out = np.empty(len(queries), dtype=np.float64)
        for i, q in enumerate(queries):
            out[i] = self.query(q)
        return out

    @property
    def query_domain(self) -> Any:
        """The domain typed queries validate against.

        A :class:`~repro.domains.Box` for spatial releases, an
        :class:`~repro.sequence.Alphabet` for sequence releases.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a query domain"
        )

    def answer(self, workload: Any) -> np.ndarray:
        """Answer a typed :class:`~repro.queries.Workload` in one dispatch.

        ``workload`` may be a :class:`~repro.queries.Workload`, a single
        :class:`~repro.queries.Query`, or a sequence of queries.  Every
        query is validated against :attr:`query_domain`; the whole batch
        is then compiled onto the release's batched engine (one vectorized
        call per query family — no per-query Python loop for the flat
        engines).  Returns one flat ``float64`` vector in workload order;
        each query contributes ``result_size`` consecutive entries (1 for
        the scalar types), so ``Workload.split`` recovers per-query
        groups.
        """
        from ..queries.answer import answer_workload

        return answer_workload(self, workload)

    def supported_query_types(self) -> tuple[type, ...]:
        """The :class:`~repro.queries.Query` classes this release answers."""
        from ..queries.answer import supported_query_types

        return supported_query_types(self)

    def warm(self) -> None:
        """Compile any lazy batch-query engines now (no-op by default).

        The serving layer calls this once at load time so the first query
        against a cached release does not pay the compile cost.
        """

    @abc.abstractmethod
    def _payload(self) -> dict[str, Any]:
        """The kind-specific body of the JSON document."""

    @classmethod
    @abc.abstractmethod
    def _from_payload(
        cls, payload: dict[str, Any], *, method: str, epsilon_spent: float
    ) -> "Release":
        """Inverse of :meth:`_payload`."""

    def to_json(self) -> dict[str, Any]:
        """Plain-JSON envelope: header + method + cost + payload."""
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "kind": self.kind,
            "method": self.method,
            "epsilon_spent": self.epsilon_spent,
            "payload": self._payload(),
        }

    def _payload_text(self) -> str:
        """The JSON text of :meth:`_payload`; a kind may write it faster."""
        return json.dumps(self._payload())

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json())``, byte for byte.

        The header is written by :func:`json.dumps` and the payload text
        spliced in as the last key, so a kind that overrides
        :meth:`_payload_text` never builds its payload dicts.  Every file
        writer of the document calls this.
        """
        header = json.dumps(
            {
                "format": _FORMAT,
                "version": _VERSION,
                "kind": self.kind,
                "method": self.method,
                "epsilon_spent": self.epsilon_spent,
            }
        )
        return f'{header[:-1]}, "payload": {self._payload_text()}}}'

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Release":
        """Rebuild any release from its :meth:`to_json` document."""
        return release_from_json(data)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} method={self.method!r} "
            f"size={self.size} epsilon_spent={self.epsilon_spent:g}>"
        )


def release_from_json(data: dict[str, Any]) -> Release:
    """Rebuild a :class:`Release` from its ``to_json`` document."""
    if data.get("format") != _FORMAT:
        raise ValueError(f"not a release document: {data.get('format')!r}")
    if data.get("version") != _VERSION:
        raise ValueError(f"unsupported release version {data.get('version')!r}")
    kind = data.get("kind")
    release_cls = _RELEASE_KINDS.get(kind)
    if release_cls is None:
        raise ValueError(f"unknown release kind {kind!r}")
    # An untrusted document missing its provenance must fail loudly, like
    # every other loader validation — a silently defaulted method="" /
    # epsilon_spent=0.0 would misreport what the artifact is and cost.
    for key in ("method", "epsilon_spent"):
        if key not in data:
            raise ValueError(f"release document is missing the {key!r} key")
    return release_cls._from_payload(
        data["payload"],
        method=str(data["method"]),
        epsilon_spent=float(data["epsilon_spent"]),
    )


def save_release(release: Release, path: str | Path) -> None:
    """Write a release to a JSON file (atomically: temp file + rename)."""
    atomic_write_text(path, release.to_json_text())


def load_release(path: str | Path) -> Release:
    """Read a release back from a JSON file."""
    return release_from_json(json.loads(Path(path).read_text()))


class Estimator(abc.ABC):
    """A configured private-release method.

    Concrete estimators are frozen dataclasses whose fields are the
    method's hyper-parameters (always including ``epsilon``, the total
    budget the method consumes).  Construct directly, or by name through
    the registry::

        est = repro.api.from_spec("privtree", epsilon=0.5)
        release = est.fit(dataset, rng=0)

    ``fit`` debits the given accountant by exactly ``epsilon`` (creating a
    private single-use accountant when none is passed) and raises
    :class:`~repro.mechanisms.BudgetExceededError` when the shared budget
    cannot cover it.
    """

    #: Registry name ("privtree", "ug", ...); set by concrete classes.
    name: ClassVar[str] = ""
    #: Input family: "spatial" or "sequence".
    kind: ClassVar[str] = ""

    # Concrete dataclasses define: epsilon: float
    epsilon: float

    @abc.abstractmethod
    def fit(
        self,
        dataset: Any,
        *,
        accountant: PrivacyAccountant | None = None,
        rng: Any = None,
    ) -> Release:
        """Consume ``epsilon`` from ``accountant`` and build the release."""

    def _accountant(self, accountant: PrivacyAccountant | None) -> PrivacyAccountant:
        """The accountant ``fit`` debits: the shared one, or a private one."""
        if accountant is not None:
            return accountant
        return PrivacyAccountant(self.epsilon)

    @classmethod
    def param_names(cls) -> tuple[str, ...]:
        """The configurable field names of this estimator."""
        return tuple(f.name for f in dataclasses.fields(cls))

    def params(self) -> dict[str, Any]:
        """The configured parameters as a plain dict."""
        return dataclasses.asdict(self)
