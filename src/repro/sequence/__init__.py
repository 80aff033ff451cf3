"""Private Markov models over sequence data (Section 4)."""

from .alphabet import Alphabet, END_SYMBOL, START_SYMBOL
from .dataset import SequenceDataset, TokenStore
from .flat import FlatPST
from .markov import MarkovModel
from .metrics import length_distribution, top_k_precision, total_variation_distance
from .private_pst import equation_13_score, exact_pst, private_pst
from .serialize import load_pst, pst_from_dict, pst_to_dict, save_pst
from .tasks import (
    count_substrings,
    count_substrings_reference,
    exact_top_k,
    top_k_substrings,
)

__all__ = [
    "Alphabet",
    "END_SYMBOL",
    "FlatPST",
    "MarkovModel",
    "START_SYMBOL",
    "SequenceDataset",
    "TokenStore",
    "count_substrings",
    "count_substrings_reference",
    "equation_13_score",
    "exact_pst",
    "exact_top_k",
    "length_distribution",
    "load_pst",
    "private_pst",
    "pst_from_dict",
    "pst_to_dict",
    "save_pst",
    "top_k_precision",
    "top_k_substrings",
    "total_variation_distance",
]
