"""Decomposable domains: boxes, taxonomies, and mixed products (§3.5)."""

from .base import Domain, NodePayload
from .box import Box, RangeCounter
from .product import DomainComponent, IntervalComponent, ProductDomain
from .table import TableNodeData
from .taxonomy import Taxonomy, TaxonomyDomain

__all__ = [
    "Box",
    "Domain",
    "DomainComponent",
    "IntervalComponent",
    "NodePayload",
    "ProductDomain",
    "RangeCounter",
    "TableNodeData",
    "Taxonomy",
    "TaxonomyDomain",
]
