"""repro — a reproduction of PrivTree (Zhang, Xiao, Xie; SIGMOD 2016).

Differentially private hierarchical decompositions without a pre-defined
recursion-depth limit, applied to spatial histograms and Markov models over
sequence data, together with the baselines and experiments of the paper.

The public surface is the unified estimator/release API of :mod:`repro.api`:
every method — PrivTree, the grid baselines, the sequence models — is an
:class:`~repro.api.Estimator` resolved by name from a registry, and every
``fit`` debits a shared :class:`PrivacyAccountant` and returns a
:class:`~repro.api.Release` that answers queries and round-trips through
JSON.

Quickstart::

    import numpy as np
    from repro import SpatialDataset, from_spec
    from repro.domains import Box

    points = np.random.default_rng(0).normal(0.5, 0.1, size=(10_000, 2))
    data = SpatialDataset(points.clip(0, 0.999), Box.unit(2), name="demo")
    release = from_spec("privtree", epsilon=1.0).fit(data, rng=0)
    print(release.query(Box((0.4, 0.4), (0.6, 0.6))))
    print(release.epsilon_spent, release.size)

The free functions of 1.x (``privtree_histogram`` and friends) were removed
in 2.0.0; the README maps each one to its ``from_spec`` replacement.
"""

from . import api, federated, queries, serve
from .api import Estimator, Release, from_spec
from .queries import Workload
from .core import (
    DecompositionTree,
    PrivTreeParams,
    TreeNode,
    privtree,
    simpletree,
)
from .mechanisms import BudgetExceededError, PrivacyAccountant, ensure_rng
from .sequence import (
    Alphabet,
    FlatPST,
    SequenceDataset,
    private_pst,
)
from .spatial import (
    HistogramTree,
    SpatialDataset,
    average_relative_error,
    generate_workload,
)

__version__ = "11.0.0"

__all__ = [
    "Alphabet",
    "BudgetExceededError",
    "DecompositionTree",
    "Estimator",
    "FlatPST",
    "HistogramTree",
    "PrivTreeParams",
    "PrivacyAccountant",
    "Release",
    "SequenceDataset",
    "SpatialDataset",
    "TreeNode",
    "Workload",
    "api",
    "average_relative_error",
    "ensure_rng",
    "federated",
    "from_spec",
    "generate_workload",
    "private_pst",
    "privtree",
    "queries",
    "serve",
    "simpletree",
    "__version__",
]
