"""Padded leaf blocks: the dual-tree side of batched execution.

The SoA executors' node-block dispatch (:mod:`repro.core.batched`)
hands the rules whole *blocks* of (query leaf, reference leaf) pairs
at once.  To vectorize across a block, every leaf's points are staged
into one padded array per tree — shape ``(num_leaves, capacity,
dim)``, where ``capacity`` is the largest leaf's point count —
together with the matching point ids and a validity mask.  A block of
pairs then becomes two row-index gathers plus a single broadcast
distance computation, instead of one small NumPy expression per pair.

Padding never changes results: distances are computed elementwise (so
valid entries are bit-identical to the per-pair computation), and the
padded tail is either masked out (PC) or pinned to ``+inf`` so that
mins and argmins ignore it (NN/KNN).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dualtree.boxes import PAIRWISE_DIM, HRect
from repro.dualtree.spatial import SpatialNode, SpatialTree
from repro.spaces.soa import PayloadGetter, SoATree, to_soa


@dataclass
class LeafBlocks:
    """Padded per-leaf point storage for one spatial tree."""

    #: (num_leaves, capacity, dim) point coordinates, zero-padded
    points: np.ndarray
    #: (num_leaves, capacity) point ids, -1-padded
    ids: np.ndarray
    #: (num_leaves, capacity) True where a real point sits
    valid: np.ndarray
    #: (num_leaves,) real point count per leaf
    counts: np.ndarray
    #: pre-order ``node.number`` -> row in the arrays above
    row_of: dict[int, int]

    def rows(self, leaves: list[SpatialNode]) -> np.ndarray:
        """Row indices for a list of leaf nodes."""
        row_of = self.row_of
        return np.fromiter(
            (row_of[leaf.number] for leaf in leaves),
            dtype=np.intp,
            count=len(leaves),
        )


def build_leaf_blocks(tree: SpatialTree) -> LeafBlocks:
    """Stage a tree's leaves into padded arrays, one gather per array."""
    leaves = tree.leaves()
    starts = np.array([leaf.start for leaf in leaves], dtype=np.intp)
    counts = np.array([leaf.count for leaf in leaves], dtype=np.intp)
    capacity = int(counts.max(initial=1))
    dim = int(tree.points.shape[1])
    points = np.zeros((len(leaves), capacity, dim), dtype=tree.points.dtype)
    ids = np.full((len(leaves), capacity), -1, dtype=np.int64)
    valid = np.arange(capacity) < counts[:, None]
    owned = tree.indices[(starts[:, None] + np.arange(capacity))[valid]]
    ids[valid] = owned
    points[valid] = tree.points[owned]
    row_of = {leaf.number: row for row, leaf in enumerate(leaves)}
    return LeafBlocks(
        points=points, ids=ids, valid=valid, counts=counts, row_of=row_of
    )


def leaf_blocks(tree: SpatialTree) -> LeafBlocks:
    """Blocks for a tree, built once and cached on the tree object."""
    cached = getattr(tree, "_leaf_blocks", None)
    if cached is None:
        cached = build_leaf_blocks(tree)
        tree._leaf_blocks = cached  # type: ignore[attr-defined]
    return cached


def spatial_payload(tree: SpatialTree) -> dict[str, PayloadGetter]:
    """Payload getters for packing a spatial tree into SoA columns.

    Besides the point-slice bounds every spatial node carries
    (``start``/``end``/``count``), each node gets a ``leaf_row``: its
    row in the tree's padded :class:`LeafBlocks` for leaves, ``-1`` for
    internal nodes.  A SoA-native spatial kernel can thus turn a block
    of layout positions into leaf-block row gathers — the same staging
    the node-based ``work_batch`` kernels do through ``row_of`` lookups,
    minus the per-node attribute walk.
    """
    row_of = leaf_blocks(tree).row_of
    return {
        "start": lambda node: node.start,
        "end": lambda node: node.end,
        "count": lambda node: node.count,
        "is_leaf": lambda node: not node.children,
        "leaf_row": lambda node: row_of.get(node.number, -1),
    }


def spatial_soa_view(tree: SpatialTree, order: str = "preorder") -> SoATree:
    """A packed SoA view of a spatial tree with leaf-block columns.

    Built once per (tree, order) and cached on the tree object, like
    :func:`leaf_blocks`.  Note the executors' own ``soa_view`` cache is
    keyed on the *root node* and uses the inferred payload; this helper
    exists for kernels that want the richer :func:`spatial_payload`
    columns.
    """
    views = getattr(tree, "_soa_views", None)
    if views is None:
        views = {}
        tree._soa_views = views  # type: ignore[attr-defined]
    view = views.get(order)
    if view is None:
        view = to_soa(tree.root, order, payload=spatial_payload(tree))
        views[order] = view
    return view


def block_distances(
    query_blocks: LeafBlocks,
    reference_blocks: LeafBlocks,
    query_rows: np.ndarray,
    reference_rows: np.ndarray,
) -> np.ndarray:
    """(pairs, q_capacity, r_capacity) Euclidean distances for a block.

    Elementwise identical to
    :func:`repro.dualtree.rules._pairwise_distances` on the valid
    entries of every pair — the same subtract/square/sum/sqrt sequence
    runs per element, so batching introduces no floating drift.

    For small dimensionalities the squared terms accumulate axis by
    axis (avoiding a 4-D temporary); NumPy reduces short axes
    sequentially, so the left-to-right accumulation reproduces
    ``(diff * diff).sum(axis=-1)`` bit for bit.  Higher dimensions use
    the literal reduction to stay aligned with NumPy's pairwise
    summation blocking.
    """
    a = query_blocks.points[query_rows]
    b = reference_blocks.points[reference_rows]
    dim = a.shape[2]
    if dim >= 8:
        diff = a[:, :, None, :] - b[:, None, :, :]
        return np.sqrt((diff * diff).sum(axis=3))
    total = np.zeros((a.shape[0], a.shape[1], b.shape[1]))
    for axis in range(dim):
        diff = a[:, :, None, axis] - b[:, None, :, axis]
        total += diff * diff
    return np.sqrt(total)


@dataclass
class BoundArrays:
    """Per-node hyperrectangle bounds as arrays, pre-order-indexed."""

    #: (num_nodes, dim) lower corners, indexed by ``node.number``
    mins: np.ndarray
    #: (num_nodes, dim) upper corners, indexed by ``node.number``
    maxs: np.ndarray


#: Cache sentinel for trees whose bounds are not hyperrectangles.
_NO_BOUND_ARRAYS = "unsupported"


def bound_arrays(tree: SpatialTree) -> Optional[BoundArrays]:
    """Stage a tree's node bounds into arrays, cached on the tree.

    Returns ``None`` for trees whose bounds are not axis-aligned
    hyperrectangles (vantage-point trees carry metric balls) — callers
    fall back to scalar bound evaluation.
    """
    cached = getattr(tree, "_bound_arrays", None)
    if cached is _NO_BOUND_ARRAYS:
        return None
    if cached is not None:
        return cached
    nodes = list(tree.root.iter_preorder())
    if not all(isinstance(node.bound, HRect) for node in nodes):  # type: ignore[attr-defined]
        tree._bound_arrays = _NO_BOUND_ARRAYS  # type: ignore[attr-defined]
        return None
    dim = nodes[0].bound.dim  # type: ignore[attr-defined]
    mins = np.zeros((len(nodes), dim))
    maxs = np.zeros((len(nodes), dim))
    for node in nodes:
        mins[node.number] = node.bound.mins  # type: ignore[attr-defined]
        maxs[node.number] = node.bound.maxs  # type: ignore[attr-defined]
    cached = BoundArrays(mins=mins, maxs=maxs)
    tree._bound_arrays = cached  # type: ignore[attr-defined]
    return cached


def min_dists_to_tree(
    bound: HRect, arrays: BoundArrays
) -> np.ndarray:
    """Minimum distance from one hyperrectangle to every tree node.

    Vectorized transcription of :meth:`repro.dualtree.boxes.HRect.min_dist`
    — per axis the same gap expression, squared and accumulated in the
    same order, then one sqrt — so each entry is bit-identical to the
    scalar call.
    """
    mins, maxs = arrays.mins, arrays.maxs
    if bound.dim >= PAIRWISE_DIM:
        gap = np.maximum(
            np.maximum(mins - np.array(bound.maxs), np.array(bound.mins) - maxs),
            0.0,
        )
        return np.sqrt((gap * gap).sum(axis=1))
    total = np.zeros(len(mins))
    for axis, (query_lo, query_hi) in enumerate(zip(bound.mins, bound.maxs)):
        lo_b = mins[:, axis]
        hi_b = maxs[:, axis]
        gap = np.where(lo_b > query_hi, lo_b - query_hi, query_lo - hi_b)
        total += np.where(gap > 0.0, gap * gap, 0.0)
    return np.sqrt(total)


# -- conformance markers ----------------------------------------------
#
# The backend-conformance analyzer (repro.transform.lint.backend)
# cannot see through these helpers' caching writes onto tree objects.
# ``__conformance_staged__`` declares "pure modulo a one-time staged
# copy of tree data" (surfaced to users as a TW109 info finding);
# ``__conformance_pure__`` declares a plain read-only computation.
leaf_blocks.__conformance_staged__ = True  # type: ignore[attr-defined]
build_leaf_blocks.__conformance_staged__ = True  # type: ignore[attr-defined]
spatial_payload.__conformance_staged__ = True  # type: ignore[attr-defined]
spatial_soa_view.__conformance_staged__ = True  # type: ignore[attr-defined]
bound_arrays.__conformance_staged__ = True  # type: ignore[attr-defined]
block_distances.__conformance_pure__ = True  # type: ignore[attr-defined]
min_dists_to_tree.__conformance_pure__ = True  # type: ignore[attr-defined]
