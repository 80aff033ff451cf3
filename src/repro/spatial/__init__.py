"""Private spatial decompositions: datasets, trees, queries, metrics."""

from .dataset import SpatialDataset
from .flat import FlatHistogram
from .histogram_tree import HistogramTree
from .metrics import SMOOTHING_FRACTION, average_relative_error, relative_error
from .quadtree import privtree_decomposition
from .queries import QUERY_BANDS, QueryBand, generate_workload, random_query
from .render import render_density, render_leaf_depth
from .serialize import load_tree, save_tree, tree_from_dict, tree_to_dict

__all__ = [
    "QUERY_BANDS",
    "FlatHistogram",
    "HistogramTree",
    "QueryBand",
    "SMOOTHING_FRACTION",
    "SpatialDataset",
    "average_relative_error",
    "generate_workload",
    "load_tree",
    "privtree_decomposition",
    "random_query",
    "relative_error",
    "render_density",
    "render_leaf_depth",
    "save_tree",
    "tree_from_dict",
    "tree_to_dict",
]
