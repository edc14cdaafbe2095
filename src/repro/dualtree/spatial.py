"""Common machinery for spatial trees (kd and vantage-point).

A :class:`SpatialNode` is an :class:`~repro.spaces.node.IndexNode` (so
every schedule executor applies unchanged) that additionally carries a
bounding volume and — at leaves — the indices of the points it owns.
A :class:`SpatialTree` bundles the node structure with the point array
and the permutation the build produced.

Both tree builders follow the same conventions:

* points are never copied — nodes store index slices into one permuted
  index array;
* leaves own at most ``leaf_size`` points;
* every node carries its size (node count, the quantity recursion
  twisting compares) and pre-order number (the Section 4.3 counters'
  requirement), the values ``finalize_tree`` assigns; the vp-tree runs
  it on the root, the kd-tree build computes them level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.spaces.node import IndexNode, finalize_tree


class SpatialNode(IndexNode):
    """A node of a spatial tree.

    ``bound`` is an :class:`~repro.dualtree.boxes.HRect` or
    :class:`~repro.dualtree.boxes.Ball`.  ``start``/``end`` delimit the
    node's points inside the tree's permuted index array; ``point_ids``
    caches the owned indices as a plain list on leaves (the base-case
    hot path).
    """

    __slots__ = ("bound", "start", "end", "point_ids")

    def __init__(self, bound, start: int, end: int) -> None:
        super().__init__()
        self.bound = bound
        self.start = start
        self.end = end
        self.point_ids: Optional[list[int]] = None

    @property
    def count(self) -> int:
        """Number of points in this node's subtree."""
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "node"
        return f"SpatialNode({kind}, points={self.count}, size={self.size})"


@dataclass
class SpatialTree:
    """A built spatial tree over a point set."""

    #: the (n, d) point array the tree indexes
    points: np.ndarray
    #: root node (sizes and pre-order numbers populated)
    root: SpatialNode
    #: permutation: ``indices[node.start:node.end]`` are the node's points
    indices: np.ndarray
    #: maximum points per leaf used by the build
    leaf_size: int

    @property
    def num_points(self) -> int:
        """Number of indexed points."""
        return int(self.points.shape[0])

    @property
    def num_nodes(self) -> int:
        """Number of tree nodes (the ``size`` of the root)."""
        return self.root.size

    def leaves(self) -> list[SpatialNode]:
        """All leaf nodes, pre-order."""
        return [
            node for node in self.root.iter_preorder() if node.is_leaf
        ]  # type: ignore[misc]

    def validate(self) -> None:
        """Structural invariants, used by tests and the builders.

        Every point appears in exactly one leaf; every node's bound
        contains its points; child slices partition the parent slice.
        """
        seen: list[int] = []
        for node in self.root.iter_preorder():
            assert isinstance(node, SpatialNode)
            owned = self.indices[node.start : node.end]
            for point in self.points[owned]:
                if not _bound_contains(node.bound, point):
                    raise AssertionError(
                        f"point {point} escapes bound {node.bound!r}"
                    )
            if node.is_leaf:
                seen.extend(int(index) for index in owned)
                if node.count > self.leaf_size:
                    raise AssertionError(
                        f"leaf holds {node.count} > leaf_size={self.leaf_size}"
                    )
            else:
                child_span = sum(child.end - child.start for child in node.children)
                if child_span != node.count:
                    raise AssertionError("children do not partition parent")
        if sorted(seen) != list(range(self.num_points)):
            raise AssertionError("leaves do not partition the point set")


def _bound_contains(bound, point) -> bool:
    """Containment check that works for both bound types."""
    from repro.dualtree.boxes import Ball, HRect, point_dist

    if isinstance(bound, HRect):
        # Tolerate floating fuzz at the boundary.
        return all(
            lo - 1e-9 <= coordinate <= hi + 1e-9
            for coordinate, lo, hi in zip(point, bound.mins, bound.maxs)
        )
    if isinstance(bound, Ball):
        return point_dist(point, bound.center) <= bound.radius + 1e-9
    raise TypeError(f"unknown bound type {type(bound)!r}")


def attach_leaf_ids(tree: SpatialTree) -> None:
    """Populate ``point_ids`` on every leaf (called by the builders)."""
    for leaf in tree.leaves():
        leaf.point_ids = [int(index) for index in tree.indices[leaf.start : leaf.end]]


def make_tree(points: np.ndarray, root: SpatialNode, indices: np.ndarray, leaf_size: int) -> SpatialTree:
    """Finalize a built node structure into a :class:`SpatialTree`."""
    finalize_tree(root)
    tree = SpatialTree(points=points, root=root, indices=indices, leaf_size=leaf_size)
    attach_leaf_ids(tree)
    return tree
