"""The method registry: names -> estimator factories.

Every method of the paper is addressable by a short name, so experiment
harnesses, the CLI, and downstream services can resolve methods from
configuration instead of importing free functions::

    from repro.api import registry

    est = registry.get("privtree")                     # default config
    est = registry.from_spec("privtree", epsilon=0.5)  # configured
    registry.names()  # ['ag', 'dawa', 'hierarchy', ...]
"""

from __future__ import annotations

import dataclasses
from typing import Any, Type

from .base import Estimator

__all__ = ["register", "get", "get_class", "from_spec", "names", "specs"]

_REGISTRY: dict[str, Type[Estimator]] = {}


def register(cls: Type[Estimator]) -> Type[Estimator]:
    """Class decorator: add an estimator class under its ``name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty `name`")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"method name {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_loaded() -> None:
    # The built-in estimators register themselves on import; delay it so
    # `import repro.api.registry` alone never forms an import cycle.
    if not _REGISTRY:
        from . import estimators  # noqa: F401


def names() -> list[str]:
    """All registered method names, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_class(name: str) -> Type[Estimator]:
    """The estimator class registered under ``name``."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown method {name!r}; registered methods: {', '.join(names())}"
        ) from None


def from_spec(name: str, **params: Any) -> Estimator:
    """Construct a configured estimator from its registry name.

    Unknown parameters are rejected with the estimator's valid field names,
    so typos fail loudly instead of silently running at defaults.
    """
    cls = get_class(name)
    valid = set(cls.param_names())
    unknown = sorted(set(params) - valid)
    if unknown:
        raise TypeError(
            f"unknown parameter(s) for method {name!r}: {', '.join(unknown)}; "
            f"valid parameters: {', '.join(sorted(valid))}"
        )
    return cls(**params)


def get(name: str, **params: Any) -> Estimator:
    """A configured estimator instance (alias of :func:`from_spec`)."""
    return from_spec(name, **params)


def specs() -> list[dict[str, Any]]:
    """One describing dict per registered method (name, kind, parameters)."""
    _ensure_loaded()
    out = []
    for name in names():
        cls = _REGISTRY[name]
        out.append(
            {
                "name": name,
                "kind": cls.kind,
                "summary": (cls.__doc__ or "").strip().splitlines()[0],
                "params": {
                    f.name: f.default
                    for f in dataclasses.fields(cls)
                    if f.default is not dataclasses.MISSING
                },
            }
        )
    return out
