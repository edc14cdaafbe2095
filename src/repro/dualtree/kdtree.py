"""kd-trees (Bentley 1975), the spatial index of the PC/NN/KNN benchmarks.

The build is the standard median split: at each node, pick the widest
dimension of the node's tight bounding box and partition the points at
the median coordinate.  Nodes carry *tight* bounding hyperrectangles
(recomputed from the actual points, not inherited splits), which gives
``Score`` the strongest conservative pruning.

Splitting uses ``numpy.argpartition`` — O(n) per level, O(n log n)
total — and the tree is balanced, so tree node sizes halve per level:
exactly the size hierarchy recursion twisting exploits.

**The build runs level by level, not node by node.**  The nodes of one
level own disjoint slices of the permuted index array, so one
``np.minimum.reduceat`` and one ``np.maximum.reduceat`` over
``points[indices]`` give every node's tight box at once, one ``argmax``
over the box widths picks every node's split axis, and the level's
median partitions run as the rows of one array per slice length.  The
result is the tree a recursive per-node build gives:

* min and max are exact, so each box equals the per-slice reduction
  (up to the sign of a zero edge when the input holds both ``0.0`` and
  ``-0.0``: which one a NumPy reduction keeps depends on its SIMD
  blocking, and nothing reads that sign);
* ``argmax`` returns the first widest axis, as per node; a node of zero
  width on that axis (all its points coincide) stays an oversized leaf;
* each split node's slice is partitioned by ``argpartition`` at
  ``count // 2`` on the same values, since ``argpartition`` along an
  axis runs on each row by itself.  A node's slice is fixed by its
  ancestors' partitions alone and siblings' slices are disjoint, so the
  order in which nodes are split does not matter.

Sizes (node counts, which twisting compares) and pre-order numbers (the
Section 4.3 counters' requirement) come from the child links, a level
at a time, and every leaf's ``point_ids`` is a slice of one
``indices.tolist()``.  Nothing recurses, so no input can reach the
interpreter's recursion limit.
"""

from __future__ import annotations

import numpy as np

from repro.dualtree.boxes import HRect
from repro.dualtree.spatial import SpatialNode, SpatialTree


def build_kdtree(points: np.ndarray, leaf_size: int = 8) -> SpatialTree:
    """Build a kd-tree over an ``(n, d)`` point array.

    ``leaf_size`` bounds the points per leaf; the paper's dual-tree
    algorithms do their base-case work on leaf pairs, so this knob
    trades tree depth against base-case batch size.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a non-empty (n, d) array")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    n = points.shape[0]
    indices = np.arange(n)
    # Per level, top-down: the level's nodes (left to right), and for
    # each node the position of its first child in the next level, or
    # -1 for a leaf.
    levels: list[tuple[list[SpatialNode], np.ndarray]] = []
    starts = np.zeros(1, dtype=np.intp)
    ends = np.full(1, n, dtype=np.intp)
    while len(starts):
        # One segment per node, plus the gap before the next node's
        # start (leaves of earlier levels); the gaps' rows are dropped.
        edges = np.stack([starts, ends], axis=1).ravel()
        if edges[-1] == n:
            edges = edges[:-1]
        level_points = points[indices]
        mins = np.minimum.reduceat(level_points, edges, axis=0)[::2]
        maxs = np.maximum.reduceat(level_points, edges, axis=0)[::2]
        widths = maxs - mins
        axes = np.argmax(widths, axis=1)
        counts = ends - starts
        split = (counts > leaf_size) & (widths.max(axis=1) != 0.0)
        nodes = [
            _node(lo, hi, start, end)
            for lo, hi, start, end in zip(
                mins.tolist(), maxs.tolist(), starts.tolist(), ends.tolist()
            )
        ]
        first_child = np.where(split, 2 * np.cumsum(split) - 2, -1)
        levels.append((nodes, first_child))
        split_at = np.flatnonzero(split)
        # Median splits halve counts, so a level's slices have at most
        # two lengths; equal-length slices are partitioned as the rows
        # of one array (argpartition runs per row, as on each slice).
        for count in np.unique(counts[split_at]).tolist():
            group = split_at[counts[split_at] == count]
            rows = starts[group, None] + np.arange(count)
            values = level_points[rows, axes[group, None]]
            order = values.argpartition(count // 2, axis=1)
            indices[rows] = np.take_along_axis(indices[rows], order, axis=1)
        mids = starts[split_at] + counts[split_at] // 2
        starts = np.stack([starts[split_at], mids], axis=1).ravel()
        ends = np.stack([mids, ends[split_at]], axis=1).ravel()
    _link(levels, indices.tolist())
    return SpatialTree(
        points=points, root=levels[0][0][0], indices=indices, leaf_size=leaf_size
    )


def _node(mins: list, maxs: list, start: int, end: int) -> SpatialNode:
    """A node with its tight box.

    The box is filled in directly: ``HRect``'s constructor converts and
    order-checks every coordinate, and the reductions already gave
    ordered Python floats.
    """
    bound = HRect.__new__(HRect)
    bound.mins = tuple(mins)
    bound.maxs = tuple(maxs)
    return SpatialNode(bound, start, end)


def _link(levels: list[tuple[list[SpatialNode], np.ndarray]], ids: list) -> None:
    """Set children, sizes, pre-order numbers and leaf ``point_ids``."""
    # Sizes bottom-up: a node counts itself and its two subtrees.
    sizes = [np.ones(len(levels[-1][0]), dtype=np.intp)]
    for _, first_child in reversed(levels[:-1]):
        below = sizes[-1]
        split = first_child >= 0
        size = np.ones(len(first_child), dtype=np.intp)
        size[split] += below[first_child[split]] + below[first_child[split] + 1]
        sizes.append(size)
    sizes.reverse()
    # Numbers top-down: a first child follows its parent, a second
    # child follows the first child's subtree.
    numbers = [np.zeros(1, dtype=np.intp)]
    for (_, first_child), below in zip(levels, sizes[1:]):
        split = first_child >= 0
        left = numbers[-1][split] + 1
        right = left + below[first_child[split]]
        numbers.append(np.stack([left, right], axis=1).ravel())
    next_nodes = [nodes for nodes, _ in levels[1:]] + [[]]
    for (nodes, first_child), size, number, children in zip(
        levels, sizes, numbers, next_nodes
    ):
        for node, node_size, node_number, child in zip(
            nodes, size.tolist(), number.tolist(), first_child.tolist()
        ):
            node.size = node_size
            node.number = node_number
            if child < 0:
                node.point_ids = ids[node.start : node.end]
            else:
                node.children = (children[child], children[child + 1])
