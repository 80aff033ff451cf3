"""Tree nodes for the domains that really are node objects.

A :class:`TreeNode` carries an application payload: a product cell, a
taxonomy cell, ...  PrivTree grows these nodes through
:class:`NodeLevel`, the node-list form of the level that
:func:`~repro.core.privtree.grow_frontier` consumes, and SimpleTree
through the same level in :func:`~repro.core.simpletree.grow_simpletree`.
No spatial tree or PST builds them: they grow array levels
(:class:`~repro.core.level.Level`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Iterator, Sequence, TypeVar

import numpy as np

__all__ = ["TreeNode", "DecompositionTree", "NodeLevel"]

P = TypeVar("P")


@dataclass(slots=True)
class TreeNode(Generic[P]):
    """One node of a decomposition tree.

    ``payload`` is the application object (product cell, taxonomy cell, ...)
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


class NodeLevel(Generic[P]):
    """One depth of a node frontier, in the shape ``grow_frontier`` reads.

    ``splittable()`` asks every payload, and ``split(index)`` splits the
    chosen nodes' payloads one by one, linking their children.
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
        next_nodes: list[TreeNode[P]] = []
        for i in index:
            node = self.nodes[i]
            node.children = [
                TreeNode(payload=child, depth=node.depth + 1)
                for child in node.payload.split()
            ]
            next_nodes.extend(node.children)
        return NodeLevel(next_nodes, self.depth + 1)


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
