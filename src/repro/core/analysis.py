"""The privacy-loss analysis behind PrivTree (Sections 3.2-3.4).

Implements, exactly:

* ``rho(x)`` — Equation (5): the per-node privacy cost of releasing the
  boolean ``x + Lap(lambda) > theta``.
* ``rho_top(x)`` — Equation (7): the closed-form upper bound of Lemma 3.1.
* ``path_cost_bound`` — the telescoping bound
  ``(2 e^gamma - 1)/(e^gamma - 1) / lambda`` from the proof of Theorem 3.1.
* Calibration helpers realizing Theorem 3.1 / Corollary 1: given ε and the
  tree fanout β, the noise scale λ and decay δ PrivTree must use.

These functions are pure and deterministic; the tests check Lemma 3.1
pointwise and property-based, and the Figure 2 bench plots them.
"""

from __future__ import annotations

import math
import numbers

from ..mechanisms.laplace import laplace_logsf, laplace_sf

__all__ = [
    "rho",
    "rho_top",
    "path_cost_bound",
    "lambda_for_epsilon",
    "epsilon_for_lambda",
    "delta_for_lambda",
    "check_integer",
    "check_height",
    "check_max_depth",
    "simpletree_scale",
    "split_probability",
]


def rho(x: float, lam: float, theta: float = 0.0) -> float:
    """Equation (5): ``ln( Pr[x + Lap(lam) > theta] / Pr[x-1 + Lap(lam) > theta] )``.

    This is the privacy cost of revealing that a node with biased count ``x``
    was split, relative to the neighboring dataset where the count is
    ``x - 1``.  Computed in log-space for numerical stability far into the
    tails.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    return laplace_logsf(theta, lam, loc=x) - laplace_logsf(theta, lam, loc=x - 1)


def rho_top(x: float, lam: float, theta: float = 0.0) -> float:
    """Equation (7): the Lemma 3.1 upper bound of :func:`rho`.

    ``1/lam`` below ``theta + 1``, decaying as ``exp((theta+1-x)/lam)/lam``
    above it.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    if x < theta + 1:
        return 1.0 / lam
    return math.exp((theta + 1 - x) / lam) / lam


def path_cost_bound(lam: float, gamma: float) -> float:
    """Total privacy cost of an arbitrary root-to-leaf path (proof of Thm 3.1).

    With decay ``delta = gamma * lam`` per level, the biased counts along a
    path drop by at least ``delta`` per level, so the telescoped sum of
    :func:`rho_top` is at most ``(2 e^gamma - 1)/(e^gamma - 1) / lam``.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    eg = math.exp(gamma)
    return (2.0 * eg - 1.0) / (eg - 1.0) / lam


def lambda_for_epsilon(epsilon: float, fanout: int, gamma: float | None = None) -> float:
    """Noise scale λ that makes PrivTree ε-DP (Theorem 3.1 / Corollary 1).

    With the recommended ``gamma = ln(fanout)`` (Lemma 3.2's convergence
    choice) this is ``(2β - 1)/(β - 1) / ε``.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if fanout < 2:
        raise ValueError(f"fanout must be at least 2, got {fanout!r}")
    if gamma is None:
        gamma = math.log(fanout)
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    eg = math.exp(gamma)
    return (2.0 * eg - 1.0) / (eg - 1.0) / epsilon


def epsilon_for_lambda(lam: float, fanout: int, gamma: float | None = None) -> float:
    """The ε actually guaranteed by noise scale ``lam`` (inverse of above)."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    if gamma is None:
        if fanout < 2:
            raise ValueError(f"fanout must be at least 2, got {fanout!r}")
        gamma = math.log(fanout)
    return path_cost_bound(lam, gamma)


def delta_for_lambda(lam: float, fanout: int, gamma: float | None = None) -> float:
    """Decay factor ``delta = gamma * lam`` (default ``gamma = ln β``, §3.4)."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam!r}")
    if gamma is None:
        if fanout < 2:
            raise ValueError(f"fanout must be at least 2, got {fanout!r}")
        gamma = math.log(fanout)
    return gamma * lam


def check_integer(name: str, value: object, least: int) -> None:
    """Refuse a ``value`` that is a bool, not an integer, or below ``least``.

    Numpy integers are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


def check_height(height: int) -> None:
    """Reject a tree height that is not an integer of at least 1.

    A tree grows whole levels, so a fractional height (even ``3.0``) would
    grow as many levels as the next integer while the budget is split by
    the fraction, spending more than the ledger records.  A ``bool`` is
    refused too; numpy integers are accepted.
    """
    check_integer("height", height, 1)


def check_max_depth(max_depth: int | None) -> None:
    """Refuse a ``max_depth`` that is neither ``None`` nor an integer >= 0:
    a tree grows whole levels, and a negative guard would release the root
    alone for all of ε."""
    if max_depth is not None:
        check_integer("max_depth", max_depth, 0)


def simpletree_scale(epsilon: float, height: int) -> float:
    """Noise scale SimpleTree (Algorithm 1) needs: ``h / ε`` (Section 3.1)."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    check_height(height)
    return height / epsilon


def split_probability(biased_count: float, lam: float, theta: float = 0.0) -> float:
    """``Pr[b + Lap(lam) > theta]`` — the chance a node with biased count b splits.

    At the floor ``b = theta - delta`` with ``delta = lam * ln(beta)`` this
    equals ``1/(2 beta)``, the quantity Lemma 3.2's convergence argument uses.
    """
    return laplace_sf(theta, lam, loc=biased_count)
