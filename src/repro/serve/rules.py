"""Serve rule sets: the per-query oracle's dual-tree traversal.

Ticks are answered by per-point tree descents
(:mod:`repro.dualtree.frontier`); these rules are the independent
reference they are bit-compared against.  ``QueryService.execute_serial``
runs them over a one-point query tree per query, and they stay correct
for any query-tree shape, schedule and backend, because their final
state is a pure function of *which* leaf pairs were visited and the
per-pair distance values — never of the traversal interleaving:

* distances are computed with the same elementwise expression
  (:func:`~repro.dualtree.rules._pairwise_distances`) regardless of
  block shape, so each (query point, reference point) distance has the
  same bit pattern in any batch;
* :class:`ServeCountRules` reduces with exact integer sums, which are
  order-independent outright;
* :class:`ServeKnnRules` merges candidates under **set semantics**:
  the kept state per query is the k smallest ``(distance, id)`` pairs
  (lexicographic, ids break ties) over all candidates seen.  Pruning
  is conservative against a monotonically shrinking bound, so any
  subtree pruned under *any* schedule contains only candidates with
  distance strictly greater than the final kth distance — candidates
  that can never enter the final top-k.  Visiting more (a staler
  bound) or fewer (a tighter bound) such candidates therefore leaves
  the final k-set unchanged, making the result identical across batch
  shapes, traversal orders, and merge timings.

The same argument licenses the frontier: it sees a different superset
of the surviving candidates, in a different order, and reaches the same
set state.  It is also why :class:`ServeKnnRules` may buffer surviving
reference leaves and merge them in chunks (``flush_candidates``) with
the pruning bound updated only at merge time: staleness only weakens
pruning, never the answer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dualtree.frontier import PAD_ID
from repro.dualtree.rules import DualTreeRules, _pairwise_distances
from repro.dualtree.spatial import SpatialNode, SpatialTree
from repro.errors import SpecError

class ServeCountRules(DualTreeRules):
    """Per-query range counting (each query's slice of PC).

    ``Score`` is stateless geometry, so block truncation is legal and
    the SoA backend's node-block mode may run it; counts accumulate into a
    caller-supplied int64 column.
    """

    observes_results = False

    def __init__(
        self,
        query_tree: SpatialTree,
        reference_tree: SpatialTree,
        radius: float,
        counts: Optional[np.ndarray] = None,
    ) -> None:
        if radius < 0.0:
            raise SpecError(f"negative radius {radius}")
        self.query_tree = query_tree
        self.reference_tree = reference_tree
        self.radius = float(radius)
        if counts is None:
            counts = np.zeros(query_tree.num_points, dtype=np.int64)
        if counts.shape != (query_tree.num_points,):
            raise SpecError(
                f"counts column has shape {counts.shape}, expected "
                f"({query_tree.num_points},)"
            )
        self.counts = counts

    def score(self, q: SpatialNode, r: SpatialNode) -> bool:
        return q.bound.min_dist(r.bound) > self.radius

    def score_block(self, q: SpatialNode):
        """Verdicts for every reference node at once (or ``None``).

        The vectorized min-dist expression
        :func:`~repro.dualtree.batch.min_dists_to_tree` the other
        stateless rules use, bit-identical to the scalar path.
        """
        from repro.dualtree.batch import bound_arrays, min_dists_to_tree

        arrays = bound_arrays(self.reference_tree)
        if arrays is None:
            return None
        return min_dists_to_tree(q.bound, arrays) > self.radius

    def base_case(self, q: SpatialNode, r: SpatialNode) -> None:
        q_ids = self.query_tree.indices[q.start : q.end]
        r_ids = self.reference_tree.indices[r.start : r.end]
        distances = _pairwise_distances(
            self.query_tree.points[q_ids], self.reference_tree.points[r_ids]
        )
        np.add.at(
            self.counts, q_ids, (distances <= self.radius).sum(axis=1)
        )


class ServeKnnRules(DualTreeRules):
    """Batched k-NN with buffered set-semantics candidate merging.

    Serves both NN (``k=1``) and KNN queries.  Per query the rules
    keep the k smallest ``(distance, id)`` candidates — lexicographic
    ``np.lexsort`` merge, ids breaking distance ties — which makes the
    final state independent of merge order and pruning staleness (see
    the module docstring).  Surviving reference leaves are buffered
    per query leaf and merged once ``flush_candidates`` candidate
    points accumulate; callers **must** call :meth:`finalize` after
    the traversal to merge the tail buffer.
    """

    observes_results = True

    def __init__(
        self,
        query_tree: SpatialTree,
        reference_tree: SpatialTree,
        k: int,
        flush_candidates: int = 128,
        dists: Optional[np.ndarray] = None,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        if k < 1:
            raise SpecError(f"k must be >= 1, got {k}")
        if k > reference_tree.num_points:
            raise SpecError(
                f"k={k} exceeds the {reference_tree.num_points}-point "
                "reference set"
            )
        self.query_tree = query_tree
        self.reference_tree = reference_tree
        self.k = int(k)
        self.flush_candidates = max(1, int(flush_candidates))
        n = query_tree.num_points
        if dists is None:
            dists = np.full((n, k), np.inf)
        if ids is None:
            ids = np.full((n, k), PAD_ID, dtype=np.int64)
        if dists.shape != (n, k) or ids.shape != (n, k):
            raise SpecError(
                f"result columns have shapes {dists.shape}/{ids.shape}, "
                f"expected ({n}, {k})"
            )
        self.dists = dists
        self.ids = ids
        #: per-query kth-best distance, the pruning bound
        self.kth = np.full(n, np.inf)
        self._leaf: Optional[SpatialNode] = None
        self._buffer: list[np.ndarray] = []
        self._buffered = 0

    def score(self, q: SpatialNode, r: SpatialNode) -> bool:
        if self._leaf is not None and self._leaf is not q:
            self._flush()
        q_ids = self.query_tree.indices[q.start : q.end]
        bound = float(self.kth[q_ids].max())
        return q.bound.min_dist(r.bound) > bound

    def base_case(self, q: SpatialNode, r: SpatialNode) -> None:
        if self._leaf is not None and self._leaf is not q:
            self._flush()
        self._leaf = q
        self._buffer.append(self.reference_tree.indices[r.start : r.end])
        self._buffered += r.end - r.start
        if self._buffered >= self.flush_candidates:
            self._flush()

    def _flush(self) -> None:
        q = self._leaf
        if q is None or not self._buffer:
            self._buffer = []
            self._buffered = 0
            return
        r_ids = (
            self._buffer[0]
            if len(self._buffer) == 1
            else np.concatenate(self._buffer)
        )
        self._buffer = []
        self._buffered = 0
        q_ids = self.query_tree.indices[q.start : q.end]
        distances = _pairwise_distances(
            self.query_tree.points[q_ids], self.reference_tree.points[r_ids]
        )
        cand_d = np.concatenate([self.dists[q_ids], distances], axis=1)
        cand_i = np.concatenate(
            [self.ids[q_ids], np.broadcast_to(r_ids, distances.shape)],
            axis=1,
        )
        order = np.lexsort((cand_i, cand_d), axis=1)
        top = order[:, : self.k]
        self.dists[q_ids] = np.take_along_axis(cand_d, top, axis=1)
        self.ids[q_ids] = np.take_along_axis(cand_i, top, axis=1)
        self.kth[q_ids] = self.dists[q_ids, -1]

    def finalize(self) -> None:
        """Merge the tail buffer; required once after the traversal."""
        self._flush()
        self._leaf = None
