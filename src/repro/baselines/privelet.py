"""Privelet — the Haar-wavelet mechanism (Xiao, Wang, Gehrke; TKDE 2011).

Cell counts are transformed into Haar wavelet coefficients, each coefficient
is perturbed with Laplace noise inversely proportional to its *weight*, and
the noisy grid is reconstructed.  With weight ``2^(t+1)`` for a detail
coefficient produced ``t`` pooling steps above the leaves and weight ``n``
for the base (mean) coefficient, the weighted L1 sensitivity of the
transform is ``h + 1`` (``h = log2 n``), so noise ``Lap((h+1)/(eps * W(c)))``
per coefficient gives ε-DP with only polylogarithmic reconstruction error.

Multi-dimensional grids use the standard decomposition (transform each axis
in turn); weights multiply across axes and the sensitivity becomes
``prod_i (h_i + 1)``.  This is the paper's Privelet* comparison method,
minus the subdomain-partitioning constant-factor optimization (see
"Reproduction notes" in the README).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domains.box import RangeCounter
from ..mechanisms.rng import RngLike, ensure_rng
from ..spatial.dataset import SpatialDataset
from .grid import UniformGrid

__all__ = [
    "haar_forward",
    "haar_inverse",
    "haar_weights",
    "PriveletHistogram",
]


def _check_length(n: int) -> int:
    if n < 1 or (n & (n - 1)):
        raise ValueError(f"length must be a power of two, got {n!r}")
    return n.bit_length() - 1


def haar_forward(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Averaging Haar transform along ``axis`` (length must be 2^h).

    Output layout along the axis: ``[base, d_{h-1}, d_{h-2} pair, ...]`` —
    the base (grand mean) first, then detail coefficients from coarsest to
    finest, the conventional ordered-Haar layout.
    """
    arr = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    h = _check_length(arr.shape[0])
    details = []
    approx = arr
    for _ in range(h):
        even = approx[0::2]
        odd = approx[1::2]
        details.append((even - odd) / 2.0)
        approx = (even + odd) / 2.0
    pieces = [approx] + list(reversed(details))
    out = np.concatenate(pieces, axis=0)
    return np.moveaxis(out, 0, axis)


def haar_inverse(coeffs: np.ndarray, axis: int = 0) -> np.ndarray:
    """Inverse of :func:`haar_forward` along ``axis``."""
    arr = np.moveaxis(np.asarray(coeffs, dtype=float), axis, 0)
    h = _check_length(arr.shape[0])
    approx = arr[:1]
    pos = 1
    for level in range(h):
        width = 2**level
        detail = arr[pos : pos + width]
        pos += width
        rebuilt = np.empty((2 * width,) + arr.shape[1:], dtype=float)
        rebuilt[0::2] = approx + detail
        rebuilt[1::2] = approx - detail
        approx = rebuilt
    return np.moveaxis(approx, 0, axis)


def haar_weights(n: int) -> np.ndarray:
    """Per-coefficient weights ``W(c)`` for a length-``n`` ordered transform.

    The base coefficient has weight ``n``; a detail coefficient ``t``
    pooling steps above the leaves has weight ``2^(t+1)``.  With these
    weights the weighted L1 sensitivity of the transform is ``log2(n) + 1``.
    """
    h = _check_length(n)
    weights = np.empty(n, dtype=float)
    weights[0] = float(n)
    pos = 1
    for level in range(h):  # level 0 = coarsest details
        width = 2**level
        t = h - 1 - level  # pooling steps above the leaves
        weights[pos : pos + width] = 2.0 ** (t + 1)
        pos += width
    return weights


@dataclass
class PriveletHistogram(RangeCounter):
    """The released Privelet synopsis: a reconstructed noisy cell grid."""

    grid: UniformGrid

    def range_count_arrays(self, q_lows: np.ndarray, q_highs: np.ndarray) -> np.ndarray:
        """Answer from the reconstructed cells with fractional boundaries."""
        return self.grid.range_count_arrays(q_lows, q_highs)


def _privelet_histogram(
    dataset: SpatialDataset,
    epsilon: float,
    cells_per_dim: int | None = None,
    rng: RngLike = None,
) -> PriveletHistogram:
    """Build the Privelet synopsis of a spatial dataset.

    The domain is discretized to a power-of-two grid (default 128 per
    dimension for 2-d, 16 for 4-d — the laptop-scale stand-in for the
    paper's 2^20-cell discretization).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    gen = ensure_rng(rng)
    d = dataset.ndim
    if cells_per_dim is None:
        cells_per_dim = 128 if d == 2 else 16
    if cells_per_dim & (cells_per_dim - 1):
        raise ValueError(f"cells_per_dim must be a power of two, got {cells_per_dim}")

    exact = UniformGrid.histogram(dataset, (cells_per_dim,) * d)
    coeffs = exact.counts
    for axis in range(d):
        coeffs = haar_forward(coeffs, axis=axis)

    h_per_axis = cells_per_dim.bit_length() - 1
    sensitivity = float((h_per_axis + 1) ** d)
    axis_weights = haar_weights(cells_per_dim)
    weight = np.ones((1,) * d)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = cells_per_dim
        weight = weight * axis_weights.reshape(shape)

    scales = sensitivity / (epsilon * weight)
    noisy = coeffs + gen.laplace(0.0, 1.0, size=coeffs.shape) * scales

    for axis in range(d):
        noisy = haar_inverse(noisy, axis=axis)
    grid = UniformGrid(domain=dataset.domain, counts=noisy)
    return PriveletHistogram(grid=grid)
