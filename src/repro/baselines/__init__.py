"""Baseline methods the paper compares against.

Spatial: UG, AG, Hierarchy, DAWA-lite, Privelet (Section 6.1); sequence:
N-gram and EM (Section 6.2) live in ``ngram`` / ``em_topk`` and are
re-exported here once the sequence substrate is loaded.
"""

from .ag import AdaptiveGrid
from .em_topk import em_top_k
from .ngram import (
    FlatNGram,
    NGramModel,
    count_grams,
    count_grams_reference,
    ngram_model,
)
from .dawa import DawaHistogram, private_partition
from .grid import UniformGrid
from .hierarchy import HierarchyHistogram, split_branchings
from .linearize import hilbert_order_2d, linear_order, morton_order
from .privelet import (
    PriveletHistogram,
    haar_forward,
    haar_inverse,
    haar_weights,
)
from .ug import ug_cells_per_dim

__all__ = [
    "AdaptiveGrid",
    "DawaHistogram",
    "FlatNGram",
    "HierarchyHistogram",
    "NGramModel",
    "PriveletHistogram",
    "UniformGrid",
    "count_grams",
    "count_grams_reference",
    "em_top_k",
    "haar_forward",
    "haar_inverse",
    "haar_weights",
    "hilbert_order_2d",
    "linear_order",
    "morton_order",
    "ngram_model",
    "private_partition",
    "split_branchings",
    "ug_cells_per_dim",
]
