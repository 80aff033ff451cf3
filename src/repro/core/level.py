"""Array levels: a tree grown one depth at a time, and its pre-order layout.

A level holds one depth's nodes as arrays; node ``r * fanout + j`` of the
next depth is child ``j`` of the ``r``-th node that split.  Two kinds
exist: :class:`~repro.spatial.level.BoxLevel` (boxes) and
:class:`~repro.sequence.private_pst.ContextLevel` (PST contexts).
:func:`preorder` lays either out as the pre-order rows every released
tree is written in.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

__all__ = ["Level", "Preorder", "preorder"]


class Level:
    """The links of a grown level: ``split(index)`` records the ascending
    indices of the nodes that split and the ``next`` level they made, so
    the root level is the whole tree.  A subclass holds the nodes and
    gives their ``size`` and ``fanout``."""

    __slots__ = ("depth", "split_index", "next")

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.split_index: np.ndarray | None = None
        self.next: Level | None = None

    def levels(self) -> Iterator["Level"]:
        """This level and every level grown below it, shallowest first."""
        level: Level | None = self
        while level is not None:
            yield level
            level = level.next


class Preorder(NamedTuple):
    """The pre-order layout of a grown tree.

    Nodes are also numbered breadth-first: depth by depth, each depth in
    level order.  ``position`` maps a BFS number to its pre-order index and
    ``bfs`` maps back.  Per split depth, ``parents[depth]`` holds the
    pre-order indices of the nodes that split and ``children[depth]`` the
    ``(splits, fanout)`` pre-order indices of their children, one row per
    split node, left to right.
    """

    position: np.ndarray
    bfs: np.ndarray
    parents: list[np.ndarray]
    children: list[np.ndarray]

    def leaves(self) -> np.ndarray:
        """The pre-order indices of the leaves, ascending (DFS left to right)."""
        leaf = np.ones(self.position.size, dtype=bool)
        for parent in self.parents:
            leaf[parent] = False
        return np.flatnonzero(leaf)

    def parent_rows(self) -> np.ndarray:
        """Each node's parent, by pre-order index; ``-1`` for the root."""
        parents = np.full(self.position.size, -1, dtype=np.intp)
        for parent, child in zip(self.parents, self.children):
            parents[child] = parent[:, None]
        return parents

    def sum_children(self, values: np.ndarray) -> None:
        """Set each internal row of ``values`` (one per node, in pre-order)
        to its children's sum, deepest first: from 0, left to right, the
        float sums of Python's ``sum``."""
        for parent, child in zip(reversed(self.parents), reversed(self.children)):
            total = np.zeros((parent.size,) + values.shape[1:])
            for column in child.T:
                total += values[column]
            values[parent] = total


def preorder(root: Level) -> Preorder:
    """Lay the tree grown below ``root`` out in pre-order.

    A node's pre-order index is its parent's plus one plus the subtree
    sizes of its earlier siblings, so one bottom-up pass (subtree sizes)
    and one top-down pass (positions) place every node.
    """
    levels = list(root.levels())
    sizes = [np.ones(level.size, dtype=np.intp) for level in levels]
    for depth in range(len(levels) - 2, -1, -1):
        level = levels[depth]
        below = sizes[depth + 1].reshape(level.split_index.size, level.fanout)
        sizes[depth][level.split_index] += below.sum(axis=1)
    positions = [np.zeros(1, dtype=np.intp)]
    parents, children = [], []
    for depth, level in enumerate(levels[:-1]):
        below = sizes[depth + 1].reshape(level.split_index.size, level.fanout)
        parent = positions[depth][level.split_index]
        child = (parent + 1)[:, None] + np.cumsum(below, axis=1) - below
        parents.append(parent)
        children.append(child)
        positions.append(child.ravel())
    position = np.concatenate(positions)
    bfs = np.empty_like(position)
    bfs[position] = np.arange(position.size)
    return Preorder(position, bfs, parents, children)
