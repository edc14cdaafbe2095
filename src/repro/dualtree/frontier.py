"""Point-level leaf frontiers: exact k-NN and range counts per query point.

A serve tick asks many independent one-point questions of one resident
reference kd-tree: the §2.2 shape (many outer points, one inner tree)
with the outer tree flattened to one-point leaves.  Instead of a
dual-tree traversal, every query point gets a *leaf frontier*:

1. one min-distance row from the point to every reference leaf box, in
   preorder — the §4.2 subtree truncation of a one-point query leaf,
   flattened to a per-point leaf row;
2. a bound: the radius for a count; for k-NN, the k-th smallest
   distance over the points of the point's ``min(k, leaves)`` nearest
   leaves (its *seed* leaves, which hold at least k points);
3. the frontier: the leaves whose min-distance is ≤ the bound.  Their
   (point, leaf) pairs are evaluated with the element expression of
   :func:`~repro.dualtree.rules._pairwise_distances` and reduced by a
   lexicographic ``(distance, id)`` top-k or an integer sum.

**Exactness.**  Both reductions depend only on *which* candidates are
seen, never on the order they are seen in (the set-semantics argument
of :mod:`repro.serve.rules`).  A leaf outside a count frontier has
min-distance > radius, so it holds no point within the radius.  A leaf
outside a k-NN frontier has min-distance > bound ≥ the final k-th
distance, so it holds only strictly worse candidates.  Both hold bit
for bit, not just in exact arithmetic: distances use the element
expression of ``_pairwise_distances`` (squared terms summed axis by
axis below :data:`~repro.dualtree.boxes.PAIRWISE_DIM` dimensions, by
NumPy's pairwise reduction from there up), and min-distance rows are
:func:`~repro.dualtree.batch.min_dists_to_tree`'s expression for the
point's zero-volume box, which sums its squared gaps the same way — so
an entry never exceeds the distance to any point the leaf holds.

**Working set.**  Query points are processed in chunks whose
min-distance block holds at most :data:`ROW_ENTRIES` floats, and
frontier pairs in blocks whose gathered leaf coordinates hold at most
:data:`PAIR_ENTRIES` floats, so a call's temporaries stay near 1 MiB
however many points or references there are — tiled execution without
materializing the points × references space.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.dualtree.batch import LeafBlocks, bound_arrays, leaf_blocks
from repro.dualtree.boxes import PAIRWISE_DIM
from repro.dualtree.spatial import SpatialTree
from repro.errors import SpecError

#: Floats in one chunk's min-distance block (points × leaves, times
#: the dimension from PAIRWISE_DIM up, where rows reduce a 3-D block).
ROW_ENTRIES = 1 << 14

#: Floats of leaf coordinates gathered for one block of frontier
#: (point, leaf) pairs (pairs × leaf capacity × dimension).
PAIR_ENTRIES = 1 << 14

#: Identifier padding for unfilled k-NN slots; larger than any real
#: point id, so lexicographic merges push empty slots last.
PAD_ID = np.iinfo(np.int64).max


def leaf_bounds(tree: SpatialTree) -> tuple[np.ndarray, np.ndarray]:
    """(leaves, dim) lower and upper leaf-box corners, in leaf-block rows.

    Built once per tree and cached on it, like
    :func:`~repro.dualtree.batch.leaf_blocks` (whose rows are the
    preorder leaf list too).  Only hyperrectangle (kd-tree) bounds have
    a box to measure against.
    """
    cached = getattr(tree, "_leaf_bounds", None)
    if cached is None:
        arrays = bound_arrays(tree)
        if arrays is None:
            raise SpecError("leaf frontiers need hyperrectangle leaf bounds")
        numbers = np.array([leaf.number for leaf in tree.leaves()])
        cached = (arrays.mins[numbers], arrays.maxs[numbers])
        tree._leaf_bounds = cached  # type: ignore[attr-defined]
    return cached


def _check_points(points: np.ndarray, tree: SpatialTree) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    dim = tree.points.shape[1]
    if points.ndim != 2 or points.shape[1] != dim:
        raise SpecError(
            f"query points have shape {points.shape}, expected (n, {dim})"
        )
    return points


def _min_dists(chunk: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(points, leaves) min distances from each point to each leaf box.

    ``min_dists_to_tree`` for many zero-volume boxes at once: per axis
    the gap ``max(lo - x, x - hi, 0)``, squared, summed axis by axis
    (or by NumPy's reduction from :data:`PAIRWISE_DIM` up), square root.
    """
    if chunk.shape[1] >= PAIRWISE_DIM:
        x = chunk[:, None, :]
        gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        return np.sqrt((gap * gap).sum(axis=2))
    total = np.zeros((len(chunk), len(lo)))
    gap = np.empty_like(total)
    other = np.empty_like(total)
    for axis in range(chunk.shape[1]):
        x = chunk[:, axis, None]
        np.subtract(lo[:, axis], x, out=gap)
        np.subtract(x, hi[:, axis], out=other)
        np.maximum(gap, other, out=gap)
        np.maximum(gap, 0.0, out=gap)
        np.multiply(gap, gap, out=gap)
        total += gap
    return np.sqrt(total, out=total)


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


def _chunks(count: int, lo: np.ndarray) -> Iterator[slice]:
    """Point slices whose min-distance block holds <= ROW_ENTRIES floats."""
    leaves, dim = lo.shape
    width = leaves * (dim if dim >= PAIRWISE_DIM else 1)
    rows = max(1, ROW_ENTRIES // width)
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
    touched = rows[np.flatnonzero(np.diff(rows, prepend=-1))]
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
    """Evaluate (point, leaf) pairs block by block into the top-k state."""
    for row_block, leaf_block in _pair_blocks(rows, leaves, blocks):
        dists = _pair_distances(chunk[row_block], blocks.points[leaf_block])
        valid = blocks.valid[leaf_block]
        _merge_top_k(
            best_d,
            best_i,
            np.broadcast_to(row_block[:, None], valid.shape)[valid],
            dists[valid],
            blocks.ids[leaf_block][valid],
        )


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
    blocks = leaf_blocks(tree)
    lo, hi = leaf_bounds(tree)
    num_leaves = len(lo)
    seeds_per_point = min(k, num_leaves)
    ids = np.full((len(points), k), PAD_ID, dtype=np.int64)
    dists = np.full((len(points), k), np.inf)
    for span in _chunks(len(points), lo):
        chunk, best_d, best_i = points[span], dists[span], ids[span]
        min_dists = _min_dists(chunk, lo, hi)
        local = np.arange(len(chunk))
        if seeds_per_point < num_leaves:
            seeds = np.argpartition(min_dists, seeds_per_point - 1, axis=1)
            seeds = seeds[:, :seeds_per_point]
        else:
            seeds = np.broadcast_to(np.arange(num_leaves), min_dists.shape)
        # The seed leaves hold >= k points, so their k-th distance
        # bounds the final k-th distance from above.
        _merge_pairs(
            best_d,
            best_i,
            chunk,
            np.repeat(local, seeds_per_point),
            seeds.ravel(),
            blocks,
        )
        frontier = min_dists <= best_d[:, -1:]
        frontier[local[:, None], seeds] = False  # already merged
        rows, leaves = np.nonzero(frontier)
        _merge_pairs(best_d, best_i, chunk, rows, leaves, blocks)
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
    blocks = leaf_blocks(tree)
    lo, hi = leaf_bounds(tree)
    counts = np.zeros(len(points), dtype=np.int64)
    for span in _chunks(len(points), lo):
        chunk, chunk_counts = points[span], counts[span]
        rows, leaves = np.nonzero(_min_dists(chunk, lo, hi) <= radius)
        for row_block, leaf_block in _pair_blocks(rows, leaves, blocks):
            dists = _pair_distances(
                chunk[row_block], blocks.points[leaf_block]
            )
            hits = (dists <= radius) & blocks.valid[leaf_block]
            np.add.at(chunk_counts, row_block, hits.sum(axis=1))
    return {"counts": counts}
