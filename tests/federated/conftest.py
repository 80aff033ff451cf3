"""Shared cases for the federated collector and transport tests."""

from __future__ import annotations

import numpy as np

from repro.domains import Box
from repro.spatial import SpatialDataset


def _unit_square() -> SpatialDataset:
    points = np.random.default_rng(5).uniform(size=(300, 2))
    return SpatialDataset(points, Box.unit(2))


def _one_subnormal_high() -> SpatialDataset:
    # The second extent is one subnormal wide: its midpoint rounds onto the
    # low end, so the root box is past float resolution and cannot split.
    points = np.array([[0.25, 0.0], [0.75, 0.0]])
    return SpatialDataset(points, Box((0.0, 0.0), (1.0, 5e-324)))


#: Splits rounds a collector must refuse: name -> (dataset, the rounds
#: committed before it, the malformed round, a well-formed round for the
#: same level).  Every dataset splits at fanout 4, so the root is node 0,
#: its children are 1-4, and node 1's children are 5-8.
MALFORMED_SPLITS = {
    "unsplittable": lambda: (_one_subnormal_high(), [], [0], []),
    "duplicate": lambda: (_unit_square(), [[0]], [1, 1], [1]),
    "out_of_order": lambda: (_unit_square(), [[0]], [3, 2], [2, 3]),
    "already_split": lambda: (_unit_square(), [[0]], [0], [4]),
    "earlier_level": lambda: (_unit_square(), [[0], [1]], [2], [6]),
}
