"""ASCII rendering of spatial data and decompositions (Figures 1 and 4).

The paper visualizes its datasets (Figure 4) and illustrates how the
decomposition adapts to density (Figure 1).  Terminal-friendly equivalents:

* :func:`render_density` — a character raster of point density;
* :func:`render_leaf_depth` — the decomposition's leaf depth per raster
  cell (digits; deeper = denser region), the textual analogue of drawing
  the quadtree's boxes.
"""

from __future__ import annotations

import numpy as np

from .dataset import SpatialDataset
from .histogram_tree import HistogramTree

__all__ = ["render_density", "render_leaf_depth"]

#: Density ramp from empty to dense.
_RAMP = " .:-=+*#%@"


def _projected_counts(dataset: SpatialDataset, width: int, height: int) -> np.ndarray:
    pts = dataset.points
    if dataset.ndim > 2:
        pts = pts[:, :2]  # project onto the first two axes
    lo = np.asarray(dataset.domain.low[:2])
    hi = np.asarray(dataset.domain.high[:2])
    if pts.shape[0] == 0:
        return np.zeros((height, width))
    norm = (pts - lo) / (hi - lo)
    cols = np.clip((norm[:, 0] * width).astype(int), 0, width - 1)
    rows = np.clip((norm[:, 1] * height).astype(int), 0, height - 1)
    counts = np.zeros((height, width))
    np.add.at(counts, (rows, cols), 1.0)
    return counts


def render_density(dataset: SpatialDataset, width: int = 64, height: int = 24) -> str:
    """A Figure 4-style density raster (first two axes for d > 2)."""
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be positive")
    counts = _projected_counts(dataset, width, height)
    peak = counts.max()
    lines = []
    for r in range(height - 1, -1, -1):  # y grows upward
        if peak <= 0:
            lines.append(" " * width)
            continue
        # Log scaling keeps filaments visible next to dense cores.
        level = np.log1p(counts[r]) / np.log1p(peak)
        chars = [(_RAMP[min(int(v * (len(_RAMP) - 1)), len(_RAMP) - 1)]) for v in level]
        lines.append("".join(chars))
    return "\n".join(lines)


def render_leaf_depth(
    tree: HistogramTree, width: int = 64, height: int = 24
) -> str:
    """Leaf depth per raster cell — how the decomposition adapts (Figure 1).

    Requires a 2-d synopsis.  Depths above 9 print as ``+``.
    """
    domain = tree.domain
    if domain.ndim != 2:
        raise ValueError("leaf-depth rendering requires a 2-d decomposition")
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be positive")
    lo = np.asarray(domain.low)
    hi = np.asarray(domain.high)
    # Cell centres, top raster row first (y grows upward).
    ys = lo[1] + (np.arange(height - 1, -1, -1) + 0.5) / height * (hi[1] - lo[1])
    xs = lo[0] + (np.arange(width) + 0.5) / width * (hi[0] - lo[0])
    points = np.column_stack([np.tile(xs, height), np.repeat(ys, width)])
    depths = _depths_at(tree.flat(), points).reshape(height, width)
    return "\n".join(
        "".join(str(depth) if depth <= 9 else "+" for depth in row)
        for row in depths.tolist()
    )


def _depths_at(flat, points: np.ndarray) -> np.ndarray:
    """The depth at which a top-down walk stops for each point.

    From the root, each walk steps into the first child (in child order)
    whose half-open box holds the point, and stops at a leaf or where no
    child holds it.
    """
    node = np.zeros(len(points), dtype=np.intp)
    depth = np.zeros(len(points), dtype=np.intp)
    walking = np.arange(len(points))
    while walking.size:
        n_children, children = flat._children(node[walking])
        owner = np.repeat(np.arange(walking.size), n_children)
        held = points[walking[owner]]
        inside = np.all(
            (flat.lows[children] <= held) & (held < flat.highs[children]), axis=1
        )
        # Children are grouped by owner, in child order: the first hit wins.
        stepped, first = np.unique(owner[inside], return_index=True)
        walking = walking[stepped]
        node[walking] = children[inside][first]
        depth[walking] += 1
    return depth
