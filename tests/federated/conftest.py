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
#: same level).  Every dataset splits at fanout 4.
MALFORMED_SPLITS = {
    "unsplittable": lambda: (_one_subnormal_high(), [], ["v1"], []),
    "duplicate": lambda: (_unit_square(), [["v1"]], ["v1.0", "v1.0"], ["v1.0"]),
    "out_of_order": lambda: (
        _unit_square(), [["v1"]], ["v1.2", "v1.1"], ["v1.1", "v1.2"],
    ),
    "already_split": lambda: (_unit_square(), [["v1"]], ["v1"], ["v1.3"]),
    "earlier_level": lambda: (
        _unit_square(), [["v1"], ["v1.0"]], ["v1.1"], ["v1.0.1"],
    ),
}
