"""Point frontiers: exact k-NN and range counts by a per-point tree descent.

A serve tick asks many independent one-point questions of one resident
reference kd-tree: the §2.2 shape (many outer points, one inner tree)
with the outer tree flattened to one-point leaves.  The paper's
irregular truncation (§4, ``truncateInner2?(o, i)``) with one-point
outer leaves is exactly a pruned descent of the inner tree per query
point.  This module runs that descent level-synchronously over
(point, node) pairs:

1. **Cut level.**  Each point starts with one dense min-distance row
   over the tree's *cut*: the nodes :data:`CUT_DEPTH` levels below the
   root, plus any leaf above that depth (64 nodes on a deep tree).  The
   surviving (point, cut node) pairs are the descent's first active
   pairs.  A row over the leaves would be the same algorithm with the
   cut at the leaves.
2. **Bounds.**  A count's bound is its radius.  A k-NN bound is seeded
   by a greedy dive to the deepest node on the point's path that holds
   at least k points (its *seed*): the k-th distance over the seed's
   points bounds the final k-th distance from above, however k compares
   with the leaf size.  The seed's leaves are merged before the
   descent and skipped during it — a candidate merged twice would take
   two top-k slots.
3. **Descent.**  Each step takes the active pairs, evaluates the ones
   at leaves and replaces the others by their two children.  A child
   pair is dropped when the node's min-distance exceeds the point's
   bound (for k-NN the current k-th distance, which tightens as leaves
   merge), and a count adds a node whole when its max-distance is
   ≤ the radius.  Leaf pairs are evaluated with the element expression
   of :func:`~repro.dualtree.rules._pairwise_distances` and reduced by
   a lexicographic ``(distance, id)`` top-k or an integer sum.

**Exactness.**  Both reductions depend only on *which* candidates are
seen, never on the order they are seen in (the set-semantics argument
of :mod:`repro.serve.rules`).  A dropped count pair's node holds no
point within the radius; a dropped k-NN pair's node holds only
candidates strictly worse than the final k-th.  This holds bit for
bit: a min-distance sums its squared per-axis gaps the way distances
are summed (axis by axis below
:data:`~repro.dualtree.boxes.PAIRWISE_DIM` dimensions, by NumPy's
pairwise reduction from there up), and no gap exceeds the matching
coordinate difference, so it never exceeds the distance to a point the
node holds.

**Inclusion.**  A node's max-distance is computed the way point
distances are: per axis ``max(x - lo, hi - x)``, squared, summed in the
same order, square root.  Correctly rounded subtraction,
multiplication, addition and square root are monotone, and each axis
term bounds the matching coordinate difference of every point inside
the box, so the max-distance never undercuts the computed distance of
a point the node holds.  A node counted whole therefore adds exactly
the points a leaf-by-leaf evaluation would.

**Working set.**  Dense cut rows are taken for chunks of points whose
row block holds at most :data:`ROW_ENTRIES` floats.  The descent
expands at most :data:`ACTIVE_PAIRS` pairs per step (a larger active
set is split and the rest waits on a stack), and leaf pairs are
evaluated in blocks whose gathered coordinates hold at most
:data:`PAIR_ENTRIES` floats.  So a call's temporaries stay near 1 MiB
however many points there are, and the points × nodes space is never
materialized (the tiling PCOT uses, see PAPERS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from repro.dualtree.batch import LeafBlocks, bound_arrays, leaf_blocks
from repro.dualtree.boxes import PAIRWISE_DIM
from repro.dualtree.spatial import SpatialTree
from repro.errors import SpecError

#: Depth of the cut level every point's dense row covers.
CUT_DEPTH = 6

#: Floats in one chunk's dense cut-row block (points × cut nodes ×
#: dimension): 256 two-dimensional points over a 64-node cut.
ROW_ENTRIES = 1 << 15

#: Active (point, node) pairs one descent step expands at most.
ACTIVE_PAIRS = 1 << 12

#: Floats of leaf coordinates gathered for one block of evaluated
#: (point, leaf) pairs (pairs × leaf capacity × dimension).
PAIR_ENTRIES = 1 << 14

#: Identifier padding for unfilled k-NN slots; larger than any real
#: point id, so lexicographic merges push empty slots last.
PAD_ID = np.iinfo(np.int64).max


@dataclass
class NodeArrays:
    """One kd-tree's nodes as arrays, indexed by preorder ``node.number``."""

    #: (nodes, dim) lower and upper box corners
    lo: np.ndarray
    hi: np.ndarray
    #: (nodes, 2) left and right child numbers, -1 at leaves
    children: np.ndarray
    #: (nodes,) points under each node
    count: np.ndarray
    #: (nodes,) the leaf's :class:`LeafBlocks` row, -1 for internal nodes
    leaf_row: np.ndarray
    #: (nodes,) the subtree's leaves are rows ``[first_leaf, stop_leaf)``
    first_leaf: np.ndarray
    stop_leaf: np.ndarray
    #: (nodes,) the seed dive's branch test: go right when the point's
    #: ``split_axis`` coordinate is >= ``split_at`` (the right child's
    #: lower corner on the node's widest axis)
    split_axis: np.ndarray
    split_at: np.ndarray
    #: (cut,) the cut level's node numbers, preorder, and their boxes
    cut: np.ndarray
    cut_lo: np.ndarray
    cut_hi: np.ndarray


def node_arrays(tree: SpatialTree) -> NodeArrays:
    """The tree's :class:`NodeArrays`, built once and cached on the tree.

    Like :func:`~repro.dualtree.batch.leaf_blocks`, whose rows the
    ``leaf_row`` column points into.  Only hyperrectangle (kd-tree)
    bounds have a box to measure against.
    """
    cached = getattr(tree, "_node_arrays", None)
    if cached is None:
        cached = _build_node_arrays(tree)
        tree._node_arrays = cached  # type: ignore[attr-defined]
    return cached


def _build_node_arrays(tree: SpatialTree) -> NodeArrays:
    bounds = bound_arrays(tree)
    if bounds is None:
        raise SpecError("point frontiers need hyperrectangle node bounds")
    row_of = leaf_blocks(tree).row_of
    total = tree.num_nodes
    children = np.full((total, 2), -1, dtype=np.intp)
    count = np.empty(total, dtype=np.int64)
    leaf_row = np.full(total, -1, dtype=np.intp)
    end = np.empty(total, dtype=np.intp)
    depth = np.zeros(total, dtype=np.intp)
    for node in tree.root.iter_preorder():
        number = node.number
        count[number] = node.count  # type: ignore[attr-defined]
        end[number] = number + node.size
        if node.children:
            children[number] = [child.number for child in node.children]
            depth[children[number]] = depth[number] + 1
        else:
            leaf_row[number] = row_of[number]
    leaf_numbers = np.flatnonzero(leaf_row >= 0)
    inner = np.flatnonzero(leaf_row < 0)
    split_axis = np.zeros(total, dtype=np.intp)
    split_at = np.zeros(total)
    split_axis[inner] = np.argmax(
        bounds.maxs[inner] - bounds.mins[inner], axis=1
    )
    split_at[inner] = bounds.mins[children[inner, 1], split_axis[inner]]
    cut = np.flatnonzero(
        (depth == CUT_DEPTH) | ((depth < CUT_DEPTH) & (leaf_row >= 0))
    )
    return NodeArrays(
        lo=bounds.mins,
        hi=bounds.maxs,
        children=children,
        count=count,
        leaf_row=leaf_row,
        first_leaf=np.searchsorted(leaf_numbers, np.arange(total)),
        stop_leaf=np.searchsorted(leaf_numbers, end),
        split_axis=split_axis,
        split_at=split_at,
        cut=cut,
        cut_lo=bounds.mins[cut],
        cut_hi=bounds.maxs[cut],
    )


def _check_points(points: np.ndarray, tree: SpatialTree) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    dim = tree.points.shape[1]
    if points.ndim != 2 or points.shape[1] != dim:
        raise SpecError(
            f"query points have shape {points.shape}, expected (n, {dim})"
        )
    return points


def _squared_sums(terms: np.ndarray) -> np.ndarray:
    """Sum squared terms over the last axis the way point distances are.

    NumPy's reduction runs left to right below :data:`PAIRWISE_DIM`
    and pairwise from there up; below it, column adds give the same
    left-to-right sums without a reduction call per short row.
    """
    terms *= terms
    if terms.shape[-1] >= PAIRWISE_DIM:
        return terms.sum(axis=-1)
    total = terms[..., 0].copy()
    for axis in range(1, terms.shape[-1]):
        total += terms[..., axis]
    return total


def _box_dists(
    x: np.ndarray, lo: np.ndarray, hi: np.ndarray, far: bool
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Min- (and, with ``far``, max-) distances from points to boxes.

    ``x``, ``lo`` and ``hi`` broadcast over their leading axes; the last
    is the dimension.  Per axis the gap ``x - min(max(x, lo), hi)`` (the
    rounded ``x - lo`` or ``x - hi``, or 0) and the reach
    ``max(x - lo, hi - x)`` are squared and summed like distances.
    """
    terms = np.maximum(x, lo)
    np.minimum(terms, hi, out=terms)
    np.subtract(x, terms, out=terms)
    near = np.sqrt(_squared_sums(terms))
    if not far:
        return near, None
    np.subtract(x, lo, out=terms)
    np.maximum(terms, hi - x, out=terms)
    return near, np.sqrt(_squared_sums(terms))


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(pairs, capacity) distances from ``a[i]`` to each point of ``b[i]``.

    The element expression of ``_pairwise_distances``: subtract,
    square, sum (axis by axis below :data:`PAIRWISE_DIM`, else NumPy's
    reduction), square root.
    """
    if a.shape[1] >= PAIRWISE_DIM:
        diff = a[:, None, :] - b
        return np.sqrt((diff * diff).sum(axis=2))
    total = np.zeros(b.shape[:2])
    for axis in range(a.shape[1]):
        diff = a[:, axis, None] - b[:, :, axis]
        total += diff * diff
    return np.sqrt(total, out=total)


def _chunks(count: int, arrays: NodeArrays) -> Iterator[slice]:
    """Point slices whose dense cut row holds <= ROW_ENTRIES floats."""
    rows = max(1, ROW_ENTRIES // arrays.cut_lo.size)
    for start in range(0, count, rows):
        yield slice(start, start + rows)


def _pair_blocks(
    rows: np.ndarray, leaves: np.ndarray, blocks: LeafBlocks
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(rows, leaves)`` slices of at most :data:`PAIR_ENTRIES` floats."""
    capacity, dim = blocks.points.shape[1:]
    step = max(1, PAIR_ENTRIES // (capacity * dim))
    for start in range(0, len(rows), step):
        yield rows[start : start + step], leaves[start : start + step]


def _descend(
    rows: np.ndarray,
    nodes: np.ndarray,
    arrays: NodeArrays,
    visit: Callable[[np.ndarray, np.ndarray], None],
    survive: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> None:
    """Run (point, node) pairs down the tree until none is left.

    ``visit(rows, leaf_rows)`` evaluates pairs that reached a leaf;
    ``survive(rows, nodes)`` masks the child pairs worth keeping.  Rows
    stay sorted within every block: children are interleaved behind
    their parent pair.  Expanding at most half of :data:`ACTIVE_PAIRS`
    pairs per step keeps each step's children within the cap; the
    remainder waits on the stack, so later blocks meet the bounds the
    earlier ones tightened.
    """
    half = max(1, ACTIVE_PAIRS // 2)
    stack = [(rows, nodes)]
    while stack:
        rows, nodes = stack.pop()
        if len(rows) > half:
            stack.append((rows[half:], nodes[half:]))
            rows, nodes = rows[:half], nodes[:half]
        leaf = arrays.leaf_row[nodes]
        at_leaf = leaf >= 0
        if at_leaf.any():
            visit(rows[at_leaf], leaf[at_leaf])
            inner = ~at_leaf
            rows, nodes = rows[inner], nodes[inner]
            if not len(rows):
                continue
        rows = rows.repeat(2)
        nodes = arrays.children.take(nodes, axis=0).ravel()
        keep = survive(rows, nodes)
        if keep.any():
            stack.append((rows[keep], nodes[keep]))


def _merge_top_k(
    best_d: np.ndarray,
    best_i: np.ndarray,
    rows: np.ndarray,
    dists: np.ndarray,
    ids: np.ndarray,
) -> None:
    """Fold candidates into each row's k smallest ``(distance, id)``.

    ``rows`` must be sorted.  One lexsort by (row, distance, id) over
    the candidates plus the touched rows' current state; each row's
    first k entries become its new state.
    """
    k = best_d.shape[1]
    first = np.ones(len(rows), dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    touched = rows[first]
    cand_r = np.concatenate([rows, np.repeat(touched, k)])
    cand_d = np.concatenate([dists, best_d[touched].ravel()])
    cand_i = np.concatenate([ids, best_i[touched].ravel()])
    order = np.lexsort((cand_i, cand_d, cand_r))
    cand_r = cand_r[order]
    rank = np.arange(len(cand_r)) - np.searchsorted(cand_r, cand_r)
    keep = rank < k
    slot = (cand_r[keep], rank[keep])
    best_d[slot] = cand_d[order[keep]]
    best_i[slot] = cand_i[order[keep]]


def _merge_pairs(
    best_d: np.ndarray,
    best_i: np.ndarray,
    chunk: np.ndarray,
    rows: np.ndarray,
    leaves: np.ndarray,
    blocks: LeafBlocks,
) -> None:
    """Evaluate (point, leaf) pairs block by block into the top-k state.

    Only candidates that can still enter a row's top k are merged: a
    distance above the row's k-th cannot, one equal to it can (its id
    may win the tie).
    """
    bound = best_d[:, -1]
    for row_block, leaf_block in _pair_blocks(rows, leaves, blocks):
        dists = _pair_distances(
            chunk.take(row_block, axis=0),
            blocks.points.take(leaf_block, axis=0),
        )
        keep = blocks.valid.take(leaf_block, axis=0)
        keep &= dists <= bound.take(row_block)[:, None]
        if keep.any():
            _merge_top_k(
                best_d,
                best_i,
                np.broadcast_to(row_block[:, None], keep.shape)[keep],
                dists[keep],
                blocks.ids.take(leaf_block, axis=0)[keep],
            )


def _seed_nodes(
    chunk: np.ndarray, near: np.ndarray, arrays: NodeArrays, k: int
) -> np.ndarray:
    """Per point, the deepest node on its dive path holding >= k points.

    The dive starts at the point's nearest cut node (``near`` is its
    cut row), or at the root when that node holds fewer than k points.
    """
    node = arrays.cut[np.argmin(near, axis=1)]
    node[arrays.count[node] < k] = 0  # the root is node 0
    active = np.arange(len(chunk))
    while len(active):
        here = node[active]
        side = chunk[active, arrays.split_axis[here]] >= arrays.split_at[here]
        child = arrays.children[here, side.view(np.int8)]
        # A leaf's children are -1; its count lookup is masked out.
        deep = (child >= 0) & (arrays.count[child] >= k)
        active = active[deep]
        node[active] = child[deep]
    return node


def _subtree_leaves(
    arrays: NodeArrays, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(row, leaf row) pairs covering every leaf under ``nodes[row]``."""
    first = arrays.first_leaf[nodes]
    spans = arrays.stop_leaf[nodes] - first
    rows = np.repeat(np.arange(len(nodes)), spans)
    shift = np.repeat(np.cumsum(spans) - spans - first, spans)
    return rows, np.arange(len(rows)) - shift


def knn_frontier(
    points: np.ndarray, tree: SpatialTree, k: int
) -> dict[str, np.ndarray]:
    """The k nearest reference points of every query point (NN is k = 1).

    Returns ``ids`` and ``dists``, each ``(points, k)``: per point the
    k lexicographically smallest ``(distance, id)`` pairs over the
    whole reference set, nearest first.
    """
    points = _check_points(points, tree)
    if not 1 <= k <= tree.num_points:
        raise SpecError(
            f"k={k} is outside 1..{tree.num_points}, the reference count"
        )
    arrays = node_arrays(tree)
    blocks = leaf_blocks(tree)
    ids = np.full((len(points), k), PAD_ID, dtype=np.int64)
    dists = np.full((len(points), k), np.inf)
    for span in _chunks(len(points), arrays):
        chunk, best_d, best_i = points[span], dists[span], ids[span]
        near, _ = _box_dists(
            chunk[:, None, :], arrays.cut_lo, arrays.cut_hi, far=False
        )
        seeds = _seed_nodes(chunk, near, arrays, k)
        _merge_pairs(
            best_d, best_i, chunk, *_subtree_leaves(arrays, seeds), blocks
        )
        seed_first = arrays.first_leaf[seeds]
        seed_stop = arrays.stop_leaf[seeds]
        bound = best_d[:, -1]  # a view: tightens as merges land

        def visit(rows: np.ndarray, leaves: np.ndarray) -> None:
            # The seeds' leaves are merged already.
            fresh = (leaves < seed_first.take(rows)) | (
                leaves >= seed_stop.take(rows)
            )
            _merge_pairs(
                best_d, best_i, chunk, rows[fresh], leaves[fresh], blocks
            )

        def survive(rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
            near, _ = _box_dists(
                chunk.take(rows, axis=0),
                arrays.lo.take(nodes, axis=0),
                arrays.hi.take(nodes, axis=0),
                far=False,
            )
            return near <= bound.take(rows)

        rows, cols = np.nonzero(near <= bound[:, None])
        del near
        _descend(rows, arrays.cut[cols], arrays, visit, survive)
    return {"ids": ids, "dists": dists}


def count_frontier(
    points: np.ndarray, tree: SpatialTree, radius: float
) -> dict[str, np.ndarray]:
    """How many reference points lie within ``radius`` of each query point.

    Returns ``counts``, ``(points,)`` int64.
    """
    points = _check_points(points, tree)
    if not radius >= 0.0:
        raise SpecError(f"radius must be >= 0, got {radius}")
    arrays = node_arrays(tree)
    blocks = leaf_blocks(tree)
    counts = np.zeros(len(points), dtype=np.int64)
    for span in _chunks(len(points), arrays):
        chunk, chunk_counts = points[span], counts[span]

        def visit(rows: np.ndarray, leaves: np.ndarray) -> None:
            for row_block, leaf_block in _pair_blocks(rows, leaves, blocks):
                dists = _pair_distances(
                    chunk.take(row_block, axis=0),
                    blocks.points.take(leaf_block, axis=0),
                )
                hits = dists <= radius
                hits &= blocks.valid.take(leaf_block, axis=0)
                np.add.at(chunk_counts, row_block, hits.sum(axis=1))

        def survive(rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
            near, reach = _box_dists(
                chunk.take(rows, axis=0),
                arrays.lo.take(nodes, axis=0),
                arrays.hi.take(nodes, axis=0),
                far=True,
            )
            inside = reach <= radius
            if inside.any():
                np.add.at(
                    chunk_counts,
                    rows[inside],
                    arrays.count.take(nodes[inside]),
                )
            return (near <= radius) & ~inside

        near, reach = _box_dists(
            chunk[:, None, :], arrays.cut_lo, arrays.cut_hi, far=True
        )
        inside = reach <= radius
        chunk_counts += (inside * arrays.count[arrays.cut]).sum(axis=1)
        rows, cols = np.nonzero((near <= radius) & ~inside)
        del near, reach, inside
        _descend(rows, arrays.cut[cols], arrays, visit, survive)
    return {"counts": counts}
