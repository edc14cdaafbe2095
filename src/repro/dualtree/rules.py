"""Tree-independent dual-tree rule sets (Curtin et al., ICML 2013).

Curtin et al. factor every dual-tree algorithm into two callbacks:

* ``Score(q_node, r_node)`` — may the pair be *pruned*?  Must be
  conservative: prune only when no point pair under the two nodes can
  affect the answer;
* ``BaseCase(q_point, r_point)`` — the point-pair computation.

Our traverser (:mod:`repro.dualtree.traverser`) maps these onto the
paper's nested recursion template: ``Score`` becomes the irregular
``truncateInner2?``, and ``BaseCase`` batches run at leaf-leaf work
points.  The three rule sets below — point correlation, nearest
neighbor, k-nearest neighbors — are the algorithms behind the PC, NN,
KNN, and VP benchmarks (VP is KNN over vantage-point trees).

All rule state is per-query (counts per query leaf, best distances per
query point), so the *outer recursion is parallel* in the paper's
Section 3.3 sense: rule state never flows between different query
leaves.  That is what licenses interchange and twisting on these
algorithms despite their inner-recursion-carried dependences.
"""

from __future__ import annotations

import numpy as np

from repro.dualtree.spatial import SpatialNode, SpatialTree


class DualTreeRules:
    """Base interface: prune test plus leaf-leaf base case."""

    #: True when ``score`` reads state that ``base_case`` writes (or
    #: itself writes productive state), so deferring base cases past a
    #: score evaluation could change decisions or results.  The SoA
    #: executors use this to decide whether truncation checks need a
    #: work barrier (``spec.truncation_observes_work``).  Conservative
    #: default: assume stateful.
    observes_results: bool = True

    def score(self, q: SpatialNode, r: SpatialNode) -> bool:
        """Return ``True`` to prune the pair (skip ``r``'s subtree)."""
        raise NotImplementedError

    def base_case(self, q: SpatialNode, r: SpatialNode) -> None:
        """Process all point pairs of two leaves."""
        raise NotImplementedError

    def base_case_batch(
        self, qs: list[SpatialNode], rs: list[SpatialNode]
    ) -> None:
        """Process a block of leaf pairs, as if ``base_case`` ran per pair.

        Must be semantically equivalent to calling ``base_case`` on
        each pair in list order.  The default is exactly that loop;
        subclasses override it with vectorized forms.
        """
        for q, r in zip(qs, rs):
            self.base_case(q, r)


def _leaf_points(tree: SpatialTree, node: SpatialNode) -> np.ndarray:
    """The (k, d) array of points owned by a leaf."""
    return tree.points[tree.indices[node.start : node.end]]


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense Euclidean distances between two small point sets."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


class PointCorrelationRules(DualTreeRules):
    """2-point correlation: count pairs within ``radius``.

    The classic clustering statistic ("determines how 'clustered' a
    data set is").  ``Score`` prunes a node pair when even the closest
    possible points are farther apart than the radius; the base case
    counts qualifying ordered pairs.  Counting is a commutative
    reduction, so PC's answer is schedule-independent by construction.

    ``Score`` reads only geometry and the fixed radius — never the
    count — so base cases can be deferred arbitrarily
    (``observes_results`` is False) and PC gets the largest batches of
    all the dual-tree benchmarks.
    """

    observes_results = False

    def __init__(
        self,
        query_tree: SpatialTree,
        reference_tree: SpatialTree,
        radius: float,
        count_self_pairs: bool = True,
    ) -> None:
        if radius < 0.0:
            raise ValueError(f"negative radius {radius}")
        self.query_tree = query_tree
        self.reference_tree = reference_tree
        self.radius = radius
        self.count_self_pairs = count_self_pairs
        #: ordered (query, reference) pairs within the radius
        self.count = 0

    def score(self, q: SpatialNode, r: SpatialNode) -> bool:
        return q.bound.min_dist(r.bound) > self.radius

    def score_block(self, q: SpatialNode):
        """``score(q, r)`` for *every* reference node at once, or ``None``.

        Returns a boolean array indexed by the reference nodes'
        pre-order ``number``; entry ``r.number`` is bit-identical to the
        scalar ``score(q, r)`` (same float ops in the same order).
        Returns ``None`` when the reference tree's bounds are not
        hyperrectangles, in which case callers use the scalar path.
        Legal for PC because ``Score`` is stateless — a pure function of
        node geometry — so evaluating it early changes nothing.
        """
        from repro.dualtree.batch import bound_arrays, min_dists_to_tree

        arrays = bound_arrays(self.reference_tree)
        if arrays is None:
            return None
        return min_dists_to_tree(q.bound, arrays) > self.radius

    def base_case(self, q: SpatialNode, r: SpatialNode) -> None:
        distances = _pairwise_distances(
            _leaf_points(self.query_tree, q), _leaf_points(self.reference_tree, r)
        )
        within = distances <= self.radius
        if not self.count_self_pairs and self.query_tree is self.reference_tree:
            q_ids = np.asarray(q.point_ids)
            r_ids = np.asarray(r.point_ids)
            within &= q_ids[:, None] != r_ids[None, :]
        self.count += int(within.sum())

    def base_case_batch(
        self, qs: list[SpatialNode], rs: list[SpatialNode]
    ) -> None:
        """Count all point pairs of a block of leaf pairs at once.

        Bit-identical to the scalar base case: the distances are the
        same elementwise expressions, the comparison is exact, and the
        total is an integer sum (order-independent).
        """
        from repro.dualtree.batch import block_distances, leaf_blocks

        query_blocks = leaf_blocks(self.query_tree)
        reference_blocks = leaf_blocks(self.reference_tree)
        q_rows = query_blocks.rows(qs)
        r_rows = reference_blocks.rows(rs)
        distances = block_distances(query_blocks, reference_blocks, q_rows, r_rows)
        within = distances <= self.radius
        within &= (
            query_blocks.valid[q_rows][:, :, None]
            & reference_blocks.valid[r_rows][:, None, :]
        )
        if not self.count_self_pairs and self.query_tree is self.reference_tree:
            within &= (
                query_blocks.ids[q_rows][:, :, None]
                != reference_blocks.ids[r_rows][:, None, :]
            )
        self.count += int(within.sum())


class NearestNeighborRules(DualTreeRules):
    """Single nearest neighbor of every query point.

    Per-query state: ``best_dist[q]`` and ``best_id[q]``.  ``Score``
    prunes a reference node when its closest possible point is farther
    than the *worst* current best among the queries in the query leaf —
    the standard dual-tree NN bound.  Because the bound only shrinks,
    pruning is always conservative, and — as Section 3.3 requires — any
    schedule that preserves each query leaf's inner-traversal order
    makes identical pruning decisions.
    """

    def __init__(
        self,
        query_tree: SpatialTree,
        reference_tree: SpatialTree,
        exclude_self: bool = False,
    ) -> None:
        self.query_tree = query_tree
        self.reference_tree = reference_tree
        self.exclude_self = exclude_self
        n = query_tree.num_points
        self.best_dist = np.full(n, np.inf)
        self.best_id = np.full(n, -1, dtype=int)

    def score(self, q: SpatialNode, r: SpatialNode) -> bool:
        bound = float(self.best_dist[self.query_tree.indices[q.start : q.end]].max())
        return q.bound.min_dist(r.bound) > bound

    def base_case(self, q: SpatialNode, r: SpatialNode) -> None:
        q_ids = self.query_tree.indices[q.start : q.end]
        r_ids = self.reference_tree.indices[r.start : r.end]
        distances = _pairwise_distances(
            self.query_tree.points[q_ids], self.reference_tree.points[r_ids]
        )
        if self.exclude_self:
            distances[np.equal.outer(np.asarray(q_ids), np.asarray(r_ids))] = np.inf
        arg = distances.argmin(axis=1)
        best_here = distances[np.arange(len(q_ids)), arg]
        improved = best_here < self.best_dist[q_ids]
        self.best_dist[q_ids[improved]] = best_here[improved]
        self.best_id[q_ids[improved]] = np.asarray(r_ids)[arg[improved]]

    def base_case_batch(
        self, qs: list[SpatialNode], rs: list[SpatialNode]
    ) -> None:
        """Vectorized block form with sequential update semantics.

        The scalar base case updates on strict ``<`` (ties keep the
        earlier candidate) and breaks within-pair ties by the first
        minimal reference slot.  Per query, that makes the sequential
        outcome "the candidate of the earliest pair achieving the
        minimal distance" — recovered here with a lexsort on
        (query, distance, pair sequence) and a first-occurrence pick,
        so the batch is bit-identical to running the pairs in order.
        """
        from repro.dualtree.batch import block_distances, leaf_blocks

        query_blocks = leaf_blocks(self.query_tree)
        reference_blocks = leaf_blocks(self.reference_tree)
        q_rows = query_blocks.rows(qs)
        r_rows = reference_blocks.rows(rs)
        distances = block_distances(query_blocks, reference_blocks, q_rows, r_rows)
        q_ids = query_blocks.ids[q_rows]
        r_ids = reference_blocks.ids[r_rows]
        if self.exclude_self:
            distances[q_ids[:, :, None] == r_ids[:, None, :]] = np.inf
        # Padding tail is a suffix, so pinning it to +inf preserves the
        # scalar argmin's first-minimal-slot tie break.
        distances = np.where(
            reference_blocks.valid[r_rows][:, None, :], distances, np.inf
        )
        arg = distances.argmin(axis=2)
        best_here = np.take_along_axis(distances, arg[:, :, None], axis=2)[:, :, 0]
        candidate_ref = np.take_along_axis(r_ids, arg, axis=1)

        num_pairs, q_capacity = q_ids.shape
        sequence = np.repeat(np.arange(num_pairs), q_capacity)
        flat_q = q_ids.ravel()
        flat_d = best_here.ravel()
        flat_ref = candidate_ref.ravel()
        keep = query_blocks.valid[q_rows].ravel()
        flat_q, flat_d, flat_ref, sequence = (
            flat_q[keep],
            flat_d[keep],
            flat_ref[keep],
            sequence[keep],
        )
        order = np.lexsort((sequence, flat_d, flat_q))
        sorted_q = flat_q[order]
        first = np.ones(len(sorted_q), dtype=bool)
        first[1:] = sorted_q[1:] != sorted_q[:-1]
        winner_q = sorted_q[first]
        winner_d = flat_d[order][first]
        winner_ref = flat_ref[order][first]
        improved = winner_d < self.best_dist[winner_q]
        self.best_dist[winner_q[improved]] = winner_d[improved]
        self.best_id[winner_q[improved]] = winner_ref[improved]


class KNearestNeighborRules(DualTreeRules):
    """k nearest neighbors of every query point.

    Per-query state is a bounded worst-first candidate list; the prune
    bound for a query is its current k-th best distance (infinite until
    k candidates exist), and a query *leaf*'s bound is the max over its
    queries.  Used by both the KNN benchmark (kd-trees) and the VP
    benchmark (vantage-point trees) — the rules are tree-independent.
    """

    def __init__(
        self,
        query_tree: SpatialTree,
        reference_tree: SpatialTree,
        k: int,
        exclude_self: bool = False,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.query_tree = query_tree
        self.reference_tree = reference_tree
        self.k = k
        self.exclude_self = exclude_self
        n = query_tree.num_points
        #: kth-best (i.e. worst retained) distance per query
        self.kth_dist = np.full(n, np.inf)
        #: per-query candidate lists: sorted [(dist, ref_id), ...]
        self.neighbors: list[list[tuple[float, int]]] = [[] for _ in range(n)]

    def score(self, q: SpatialNode, r: SpatialNode) -> bool:
        bound = float(self.kth_dist[self.query_tree.indices[q.start : q.end]].max())
        return q.bound.min_dist(r.bound) > bound

    def base_case(self, q: SpatialNode, r: SpatialNode) -> None:
        q_ids = self.query_tree.indices[q.start : q.end]
        r_ids = self.reference_tree.indices[r.start : r.end]
        distances = _pairwise_distances(
            self.query_tree.points[q_ids], self.reference_tree.points[r_ids]
        )
        for row, query in enumerate(q_ids):
            candidates = self.neighbors[query]
            threshold = self.kth_dist[query]
            for col, reference in enumerate(r_ids):
                if self.exclude_self and query == reference:
                    continue
                distance = float(distances[row, col])
                if distance >= threshold and len(candidates) >= self.k:
                    continue
                # Insert keeping the list sorted by distance (ties by
                # reference id for determinism across schedules).
                entry = (distance, int(reference))
                lo, hi = 0, len(candidates)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if candidates[mid] < entry:
                        lo = mid + 1
                    else:
                        hi = mid
                candidates.insert(lo, entry)
                if len(candidates) > self.k:
                    candidates.pop()
                if len(candidates) >= self.k:
                    threshold = candidates[-1][0]
                    self.kth_dist[query] = threshold

    def base_case_batch(
        self, qs: list[SpatialNode], rs: list[SpatialNode]
    ) -> None:
        """Block form: one distance computation, exact per-pair inserts.

        The candidate-list maintenance is inherently sequential (each
        insert can move the pruning threshold consulted by the next),
        so the inserts replay in pair order; what gets batched is the
        distance computation — a single broadcast expression for the
        whole block instead of one small NumPy call per pair.  The
        distances are elementwise identical to the scalar path, so the
        resulting lists are too.
        """
        from repro.dualtree.batch import block_distances, leaf_blocks

        query_blocks = leaf_blocks(self.query_tree)
        reference_blocks = leaf_blocks(self.reference_tree)
        q_rows = query_blocks.rows(qs)
        r_rows = reference_blocks.rows(rs)
        distances = block_distances(query_blocks, reference_blocks, q_rows, r_rows)
        q_ids = query_blocks.ids[q_rows]
        r_ids = reference_blocks.ids[r_rows]
        q_counts = query_blocks.counts[q_rows]
        r_counts = reference_blocks.counts[r_rows]
        for pair in range(len(qs)):
            pair_distances = distances[pair]
            pair_r_ids = r_ids[pair]
            for row in range(q_counts[pair]):
                query = int(q_ids[pair, row])
                candidates = self.neighbors[query]
                threshold = self.kth_dist[query]
                for col in range(r_counts[pair]):
                    reference = int(pair_r_ids[col])
                    if self.exclude_self and query == reference:
                        continue
                    distance = float(pair_distances[row, col])
                    if distance >= threshold and len(candidates) >= self.k:
                        continue
                    entry = (distance, reference)
                    lo, hi = 0, len(candidates)
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if candidates[mid] < entry:
                            lo = mid + 1
                        else:
                            hi = mid
                    candidates.insert(lo, entry)
                    if len(candidates) > self.k:
                        candidates.pop()
                    if len(candidates) >= self.k:
                        threshold = candidates[-1][0]
                        self.kth_dist[query] = threshold

    def neighbor_ids(self) -> np.ndarray:
        """(n, k) reference ids, nearest first (-1 pads short lists)."""
        result = np.full((len(self.neighbors), self.k), -1, dtype=int)
        for query, candidates in enumerate(self.neighbors):
            for position, (_dist, reference) in enumerate(candidates):
                result[query, position] = reference
        return result

    def neighbor_dists(self) -> np.ndarray:
        """(n, k) distances, nearest first (inf pads short lists)."""
        result = np.full((len(self.neighbors), self.k), np.inf)
        for query, candidates in enumerate(self.neighbors):
            for position, (distance, _reference) in enumerate(candidates):
                result[query, position] = distance
        return result
