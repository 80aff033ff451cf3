"""Parameter calibration for PrivTree (Theorem 3.1 / Corollary 1, §3.4)."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .analysis import delta_for_lambda, lambda_for_epsilon

__all__ = ["PrivTreeParams", "check_theta"]


def check_theta(theta: object) -> None:
    """Refuse a split threshold that is not a finite real number (a bool,
    a string, NaN or ±inf): a θ of -inf would split every node."""
    if isinstance(theta, bool) or not isinstance(theta, numbers.Real) or not math.isfinite(theta):
        raise ValueError(f"theta must be a finite number, got {theta!r}")


@dataclass(frozen=True)
class PrivTreeParams:
    """Everything PrivTree needs to run: noise scale, decay, and threshold.

    Build one with :meth:`calibrate` to get the paper's recommended setting
    (Corollary 1): ``lam = (2β-1)/(β-1) * sensitivity / ε`` and
    ``delta = lam * ln β``, with ``theta = 0``.

    Attributes
    ----------
    lam:
        Scale of the Laplace noise added to each biased score.
    delta:
        The per-level decay subtracted from scores (``δ`` in the paper).
    theta:
        Split threshold (``θ``); the paper recommends and defaults to 0.
    fanout:
        β — the number of children per split; only used for reporting and
        for the Lemma 3.2 convergence guarantee.
    """

    lam: float
    delta: float
    theta: float = 0.0
    fanout: int = 4

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam!r}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if self.fanout < 2:
            raise ValueError(f"fanout must be at least 2, got {self.fanout!r}")
        check_theta(self.theta)

    @staticmethod
    def calibrate(
        epsilon: float,
        fanout: int,
        sensitivity: float = 1.0,
        theta: float = 0.0,
        gamma: float | None = None,
    ) -> "PrivTreeParams":
        """Calibrate λ and δ for ε-DP.

        ``sensitivity`` scales the noise for score functions whose value can
        change by more than 1 between neighboring datasets — the §3.5
        multi-leaf extension and the Theorem 4.1 sequence setting (where it
        is ``l⊤``) both enter here.
        """
        if not sensitivity > 0:
            raise ValueError(f"sensitivity must be positive, got {sensitivity!r}")
        lam = lambda_for_epsilon(epsilon, fanout, gamma) * sensitivity
        delta = delta_for_lambda(lam, fanout, gamma)
        return PrivTreeParams(lam=lam, delta=delta, theta=theta, fanout=fanout)

    @property
    def gamma(self) -> float:
        """The ratio ``delta / lam`` (``γ`` in Theorem 3.1)."""
        return self.delta / self.lam

    def floor(self) -> float:
        """The biased-count floor ``theta - delta`` of Equation (8)."""
        return self.theta - self.delta

    def split_probability_at_floor(self) -> float:
        """``Pr[split]`` for a node at the floor — ``1/(2β)`` when γ = ln β."""
        return 0.5 * math.exp(-self.gamma)
