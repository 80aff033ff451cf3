"""Tree nodes shared by the PrivTree and SimpleTree engines.

A :class:`TreeNode` carries an application payload (a
:class:`~repro.spatial.payload.SpatialNodeData`, a PST context, a product
cell, ...).  SimpleTree grows these nodes with its own loop; PrivTree
grows them through :class:`NodeLevel`, the node-list form of the level
that :func:`~repro.core.privtree.grow_frontier` consumes.  The spatial
PrivTree fits and the federated shard collectors bypass nodes altogether
and grow an array level (:class:`~repro.spatial.level.BoxLevel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Iterator, Sequence, TypeVar

import numpy as np

__all__ = ["TreeNode", "DecompositionTree", "NodeLevel", "expand_level"]

P = TypeVar("P")


@dataclass(slots=True)
class TreeNode(Generic[P]):
    """One node of a decomposition tree.

    ``payload`` is the application object (spatial node data, PST node, ...)
    that knows its domain, its data subset, and its score.  ``noisy_score``
    records the noisy value the engine compared against the threshold — kept
    for SimpleTree (whose released counts are exactly these values) and for
    diagnostics; PrivTree's released artifacts never expose it.
    """

    payload: P
    depth: int
    noisy_score: float | None = None
    children: list["TreeNode[P]"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """Whether the node has no children."""
        return not self.children

    def iter_nodes(self) -> Iterator["TreeNode[P]"]:
        """All nodes of the subtree, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_leaves(self) -> Iterator["TreeNode[P]"]:
        """All leaves of the subtree, left-to-right."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield node


def expand_level(nodes: list[TreeNode[P]]) -> list[TreeNode[P]]:
    """Split every node of one level; return the next level, in order.

    Payload classes may split a whole level in one vectorized pass (see
    ``SpatialNodeData.split_many``); others split node by node.
    """
    if not nodes:
        return []
    split_many = getattr(type(nodes[0].payload), "split_many", None)
    if split_many is not None:
        children_lists = split_many([node.payload for node in nodes])
    else:
        children_lists = [node.payload.split() for node in nodes]
    next_level: list[TreeNode[P]] = []
    for node, child_payloads in zip(nodes, children_lists):
        node.children = [
            TreeNode(payload=child, depth=node.depth + 1) for child in child_payloads
        ]
        next_level.extend(node.children)
    return next_level


class NodeLevel(Generic[P]):
    """One depth of a node frontier, in the shape ``grow_frontier`` reads.

    ``splittable()`` asks every payload, and ``split(index)`` expands the
    chosen nodes through :func:`expand_level`, linking their children.
    """

    __slots__ = ("nodes", "depth")

    def __init__(self, nodes: list[TreeNode[P]], depth: int) -> None:
        self.nodes = nodes
        self.depth = depth

    @property
    def size(self) -> int:
        """Number of nodes at this depth."""
        return len(self.nodes)

    def splittable(self) -> np.ndarray:
        """Boolean mask of the nodes whose payload can split."""
        return np.fromiter(
            (node.payload.can_split() for node in self.nodes), bool, len(self.nodes)
        )

    def split(self, index: Sequence[int]) -> "NodeLevel[P]":
        """Split the nodes at ``index``; return the next depth's level."""
        return NodeLevel(expand_level([self.nodes[i] for i in index]), self.depth + 1)


@dataclass
class DecompositionTree(Generic[P]):
    """A finished decomposition: the root node plus simple statistics."""

    root: TreeNode[P]

    @property
    def size(self) -> int:
        """Total number of nodes (the ``|T|`` of Lemma 3.2)."""
        return sum(1 for _ in self.root.iter_nodes())

    @property
    def leaf_count(self) -> int:
        """Number of leaves."""
        return sum(1 for _ in self.root.iter_leaves())

    @property
    def height(self) -> int:
        """Maximum depth over all nodes (root has depth 0)."""
        return max(node.depth for node in self.root.iter_nodes())

    def nodes(self) -> list[TreeNode[P]]:
        """All nodes, pre-order."""
        return list(self.root.iter_nodes())

    def leaves(self) -> list[TreeNode[P]]:
        """All leaves, left-to-right."""
        return list(self.root.iter_leaves())
