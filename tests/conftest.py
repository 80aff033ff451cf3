"""Shared fixtures: deterministic RNGs and small spatial datasets.

Also a per-test timeout fallback: the robustness suite exercises retry
loops, server threads, and killed subprocesses, and a regression there
hangs rather than fails.  When pytest-timeout is installed (CI) it owns
the ``timeout`` ini option; otherwise the shim below registers the same
option and enforces it with ``SIGALRM``, so a wedged test still dies
with a clear error instead of stalling the whole run.
"""

from __future__ import annotations

import importlib.util
import signal
import threading

import numpy as np
import pytest

from repro.domains import Box
from repro.spatial import SpatialDataset

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None

if not _HAVE_PYTEST_TIMEOUT:

    def pytest_addoption(parser: pytest.Parser) -> None:
        parser.addini(
            "timeout",
            "per-test timeout in seconds (SIGALRM fallback shim)",
            default="0",
        )

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(item: pytest.Item):
        seconds = float(item.config.getini("timeout") or 0)
        usable = (
            seconds > 0
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )
        if not usable:
            return (yield)

        def _abort(signum, frame):
            raise TimeoutError(
                f"test exceeded the {seconds:g}s per-test timeout "
                "(SIGALRM fallback; install pytest-timeout for the real thing)"
            )

        previous = signal.signal(signal.SIGALRM, _abort)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(20160601)  # SIGMOD'16


@pytest.fixture
def uniform_2d() -> SpatialDataset:
    """5 000 points uniform on the unit square."""
    gen = np.random.default_rng(7)
    pts = gen.uniform(0.0, 1.0, size=(5_000, 2)) * 0.999999
    return SpatialDataset(pts, Box.unit(2), name="uniform2d")


@pytest.fixture
def clustered_2d() -> SpatialDataset:
    """A skewed dataset: one tight cluster plus sparse background."""
    gen = np.random.default_rng(11)
    cluster = gen.normal(loc=(0.25, 0.25), scale=0.02, size=(4_000, 2))
    background = gen.uniform(0.0, 1.0, size=(500, 2))
    pts = np.clip(np.vstack([cluster, background]), 0.0, 0.999999)
    return SpatialDataset(pts, Box.unit(2), name="clustered2d")

