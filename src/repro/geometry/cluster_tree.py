"""Binary cluster tree over the point index set.

Hierarchical matrix formats (BLR2, HSS) are defined over a binary partition of
the index set ``{0, ..., N-1}``.  Points are assumed to be ordered so that a
contiguous index range is a spatially compact cluster (see
:func:`repro.geometry.points.uniform_grid_2d`, which orders along a Morton
curve).  The tree used in the paper is a *complete* binary tree: the leaf
level ``max_level`` has ``2**max_level`` nodes of (nearly) equal size, matching
the notation ``A_{level; i, j}`` of Sec. 2.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.geometry.domain import BoundingBox
from repro.geometry.points import PointCloud

__all__ = ["ClusterNode", "ClusterTree", "build_cluster_tree"]


@dataclass
class ClusterNode:
    """A node of the binary cluster tree.

    Attributes
    ----------
    level:
        Depth of the node; the root is level 0, leaves are level ``max_level``.
    index:
        Position of the node within its level (0-based, left to right).
    start, stop:
        Half-open index range ``[start, stop)`` of the points owned by the node.
    box:
        Bounding box of the owned points (None if the tree was built without
        geometry).
    children:
        Either an empty list (leaf) or exactly two child nodes.
    parent:
        The parent node (None for the root).  Held weakly: a strong
        back-pointer would make every tree a reference cycle that only the
        cycle collector can reclaim, keeping a dropped solver's blocks alive
        until it runs.  The :class:`ClusterTree` (or any ancestor) keeps the
        parent alive for as long as the link is meaningful.
    """

    level: int
    index: int
    start: int
    stop: int
    box: Optional[BoundingBox] = None
    children: List["ClusterNode"] = field(default_factory=list)
    _parent_ref: Optional["weakref.ref[ClusterNode]"] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def parent(self) -> Optional["ClusterNode"]:
        return self._parent_ref() if self._parent_ref is not None else None

    @parent.setter
    def parent(self, node: Optional["ClusterNode"]) -> None:
        self._parent_ref = weakref.ref(node) if node is not None else None

    # Weak references do not pickle (cache snapshots, deep copies): drop the
    # link on the way out and let each unpickled parent re-adopt its children.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_parent_ref"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for child in self.children:
            child.parent = self

    @property
    def size(self) -> int:
        """Number of indices owned by this node."""
        return self.stop - self.start

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def indices(self) -> np.ndarray:
        """The owned index range as an array."""
        return np.arange(self.start, self.stop)

    def sibling(self) -> Optional["ClusterNode"]:
        """The other child of this node's parent (None for the root)."""
        if self.parent is None:
            return None
        for child in self.parent.children:
            if child is not self:
                return child
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ClusterNode(level={self.level}, index={self.index}, range=[{self.start},{self.stop}))"


class ClusterTree:
    """A complete binary cluster tree.

    Parameters
    ----------
    root:
        The root :class:`ClusterNode`.
    points:
        The point cloud the tree was built on (may be None for purely
        structural trees used by the task-graph simulator).
    """

    def __init__(self, root: ClusterNode, points: Optional[PointCloud] = None) -> None:
        self.root = root
        self.points = points
        self._levels: List[List[ClusterNode]] = []
        frontier = [root]
        while frontier:
            self._levels.append(frontier)
            nxt: List[ClusterNode] = []
            for node in frontier:
                nxt.extend(node.children)
            frontier = nxt
        for level_nodes in self._levels:
            level_nodes.sort(key=lambda nd: nd.start)
            for i, node in enumerate(level_nodes):
                node.index = i

    @property
    def n(self) -> int:
        """Total number of indices (points)."""
        return self.root.size

    @property
    def max_level(self) -> int:
        """Depth of the leaf level (root is level 0)."""
        return len(self._levels) - 1

    @property
    def nlevels(self) -> int:
        """Number of levels including the root."""
        return len(self._levels)

    def level_nodes(self, level: int) -> List[ClusterNode]:
        """All nodes at ``level`` ordered by index range."""
        return self._levels[level]

    @property
    def leaves(self) -> List[ClusterNode]:
        """The leaf nodes ordered by index range."""
        return self._levels[-1]

    @property
    def leaf_size(self) -> int:
        """Maximum leaf block size."""
        return max(leaf.size for leaf in self.leaves)

    def node(self, level: int, index: int) -> ClusterNode:
        """The node at ``(level, index)``."""
        return self._levels[level][index]

    def __iter__(self) -> Iterator[ClusterNode]:
        for level_nodes in self._levels:
            yield from level_nodes

    def block_sizes(self, level: int) -> List[int]:
        """Block sizes of the partition induced by ``level``."""
        return [node.size for node in self.level_nodes(level)]

    def validate(self) -> None:
        """Check partition invariants; raises ``ValueError`` on violation."""
        for level, nodes in enumerate(self._levels):
            if nodes[0].start != 0 or nodes[-1].stop != self.n:
                raise ValueError(f"level {level} does not cover [0, {self.n})")
            for a, b in zip(nodes, nodes[1:]):
                if a.stop != b.start:
                    raise ValueError(f"level {level}: gap/overlap between {a} and {b}")
        for node in self:
            if node.children:
                if len(node.children) != 2:
                    raise ValueError("every internal node must have exactly 2 children")
                c0, c1 = sorted(node.children, key=lambda nd: nd.start)
                if c0.start != node.start or c1.stop != node.stop or c0.stop != c1.start:
                    raise ValueError(f"children of {node} do not partition it")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ClusterTree(n={self.n}, levels={self.nlevels}, leaves={len(self.leaves)})"


def _num_levels(n: int, leaf_size: int) -> int:
    """Smallest depth L so every leaf of a complete 2**L split has <= leaf_size points."""
    levels = 0
    while n > leaf_size * (2**levels):
        levels += 1
    return levels


def build_cluster_tree(
    points: PointCloud | int,
    leaf_size: int = 256,
    *,
    max_level: Optional[int] = None,
    geometric_split: bool = False,
) -> ClusterTree:
    """Build a complete binary cluster tree.

    Parameters
    ----------
    points:
        Either a :class:`PointCloud` or an integer ``N`` (structural tree with
        no geometry, used by the task-graph simulator for paper-scale N).
    leaf_size:
        Target maximum number of points per leaf (ignored when ``max_level``
        is given).
    max_level:
        Explicit tree depth; the leaf level has ``2**max_level`` nodes.
    geometric_split:
        If True, internal index ranges are split by sorting points along the
        longest axis of their bounding box (requires a :class:`PointCloud`);
        otherwise ranges are split at the midpoint of the index range (the
        default, correct for Morton-ordered points).

    Returns
    -------
    ClusterTree
    """
    if isinstance(points, PointCloud):
        cloud: Optional[PointCloud] = points
        n = points.n
    else:
        cloud = None
        n = int(points)
        if geometric_split:
            raise ValueError("geometric_split requires a PointCloud")
    if n <= 0:
        raise ValueError("need at least one point")
    if leaf_size <= 0:
        raise ValueError("leaf_size must be positive")

    depth = max_level if max_level is not None else _num_levels(n, leaf_size)
    if depth < 0:
        raise ValueError("max_level must be >= 0")
    if 2**depth > n:
        raise ValueError(f"cannot split {n} points into {2**depth} non-empty leaves")

    coords = cloud.coords if cloud is not None else None

    def make_node(level: int, start: int, stop: int) -> ClusterNode:
        box = BoundingBox.of_points(coords[start:stop]) if coords is not None else None
        node = ClusterNode(level=level, index=0, start=start, stop=stop, box=box)
        if level < depth:
            if geometric_split and coords is not None:
                axis = box.longest_axis() if box is not None else 0
                local = np.argsort(coords[start:stop, axis], kind="stable")
                coords[start:stop] = coords[start:stop][local]
            mid = start + (stop - start) // 2
            left = make_node(level + 1, start, mid)
            right = make_node(level + 1, mid, stop)
            left.parent = node
            right.parent = node
            node.children = [left, right]
        return node

    root = make_node(0, 0, n)
    tree = ClusterTree(root, cloud)
    tree.validate()
    return tree
