"""The resident back end: finalize once, serve forever.

A :class:`QueryService` is the serving counterpart of one benchmark
run.  Construction does all the work every per-call run pays
repeatedly, exactly once:

* the reference kd-tree is built and finalized, and the arrays a leaf
  frontier reads (padded leaf blocks, leaf boxes) are staged;
* the reference point array is published into shared memory as a
  long-lived :class:`~repro.spaces.soa.SharedPublication`, so pool
  workers attach zero-copy and rebuild the (deterministic) tree once
  per worker — a task submission ships only the admitted query points.

``execute_batch`` then checks every query of one tick
(:meth:`QueryService.check_query`), groups the compatible ones, and
answers each group with one point-level leaf frontier call per shard
(:mod:`repro.dualtree.frontier`): no outer tree is built and no
backend is picked.  Per-query answers are demuxed from the returned
columns.  ``execute_serial`` is the per-query oracle the tick answers
are bit-compared against: the :class:`~repro.serve.rules.ServeKnnRules`
/ :class:`~repro.serve.rules.ServeCountRules` dual-tree traversal of a
one-point query tree on ``backend="auto"``, an execution path
independent of the frontier.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.schedules import ORIGINAL
from repro.dualtree.batch import bound_arrays, leaf_blocks
from repro.dualtree.frontier import count_frontier, knn_frontier, leaf_bounds
from repro.dualtree.kdtree import build_kdtree
from repro.dualtree.spatial import SpatialTree
from repro.dualtree.traverser import dual_tree_spec
from repro.errors import SpecError
from repro.serve.protocol import (
    CountQuery,
    CountResult,
    KNNQuery,
    KNNResult,
    NNResult,
    Query,
    Result,
    group_key,
)
from repro.serve.rules import ServeCountRules, ServeKnnRules
from repro.serve.shards import (
    ReferenceShard,
    gather_columns,
    shard_slices,
)
from repro.spaces.soa import (
    SharedArrayHandle,
    SharedPublication,
    attach_shared_arrays_cached,
)

#: Query kinds the service answers.
KINDS = ("nn", "knn", "count")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one resident service.

    ``max_batch=256`` is the measured sweet spot of the development
    host; both the admission batcher and the load generator inherit it
    from here so the whole stack agrees on one batching policy.
    """

    #: reference-tree leaf size (frontier leaf granularity)
    leaf_size: int = 8
    #: admission batch cap (the batcher flushes at this size)
    max_batch: int = 256
    #: admission hold latency cap, seconds
    max_hold_s: float = 0.002
    #: pool workers (0 = execute in-process)
    workers: int = 0
    #: reference-set shards a tick is scattered across
    shards: int = 1

    def __post_init__(self) -> None:
        if self.leaf_size < 1:
            raise SpecError("leaf_size must be >= 1")
        if self.max_batch < 1:
            raise SpecError("max_batch must be >= 1")
        if self.max_hold_s < 0:
            raise SpecError("max_hold_s must be >= 0")
        if self.workers < 0:
            raise SpecError("workers must be >= 0")
        if self.shards < 1:
            raise SpecError("shards must be >= 1")


def _run_group(
    reference_tree: SpatialTree, kind: str, param: float, points: np.ndarray
) -> dict[str, np.ndarray]:
    """Answer one compatible group with one leaf frontier call.

    Returns the ``ids``/``dists`` (NN, k-NN) or ``counts`` columns,
    row ``i`` belonging to ``points[i]``.  The in-process path and pool
    workers both run it, once per shard.
    """
    if kind == "count":
        return count_frontier(points, reference_tree, param)
    return knn_frontier(
        points, reference_tree, int(param) if kind == "knn" else 1
    )


def _oracle_group(
    reference_tree: SpatialTree, kind: str, param: float, point
) -> dict[str, np.ndarray]:
    """The serial oracle's columns for one query point.

    One dual-tree traversal of a one-point query tree under the serve
    rules, on whatever backend ``auto`` picks for it.
    """
    query_tree = build_kdtree(np.array([point], dtype=float), 1)
    if kind == "count":
        rules = ServeCountRules(query_tree, reference_tree, param)
    else:
        rules = ServeKnnRules(
            query_tree, reference_tree, int(param) if kind == "knn" else 1
        )
    spec = dual_tree_spec(
        query_tree, reference_tree, rules, name=f"SERVE-{kind.upper()}"
    )
    ORIGINAL.run(spec, backend="auto", order="preorder")
    if isinstance(rules, ServeKnnRules):
        rules.finalize()
        return {"ids": rules.ids, "dists": rules.dists}
    return {"counts": rules.counts}


# ---------------------------------------------------------------------------
# Pool workers: attach the resident publication, rebuild the tree once

#: Per-worker reference trees, keyed by (segment names, leaf size).
_WORKER_TREES: dict[tuple, SpatialTree] = {}


def _worker_run_group(
    handles: Sequence[SharedArrayHandle],
    ref_leaf_size: int,
    kind: str,
    param: float,
    points: np.ndarray,
) -> dict[str, np.ndarray]:
    """Pool-worker entry: cached zero-copy attach, cached tree rebuild.

    The kd-tree build is deterministic (median splits via
    ``argpartition`` over the attached points), so every worker holds
    the same tree as the parent's shard; it is rebuilt once per worker
    and reused across ticks.
    """
    arrays = attach_shared_arrays_cached(handles)
    key = tuple(sorted(h.shm_name for h in handles)) + (ref_leaf_size,)
    tree = _WORKER_TREES.get(key)
    if tree is None:
        tree = build_kdtree(arrays["references"], ref_leaf_size)
        _WORKER_TREES[key] = tree
    return _run_group(tree, kind, param, points)


def _stage(tree: SpatialTree) -> None:
    """Build the arrays the frontier and the oracle read, once."""
    leaf_blocks(tree)
    bound_arrays(tree)
    leaf_bounds(tree)


@dataclass
class ServiceStats:
    """Steady-state counters, exposed over the wire as ``stats``."""

    queries: int = 0
    batches: int = 0
    max_batch_seen: int = 0
    per_kind: dict = field(default_factory=dict)

    def record(self, kind: str, batch: int) -> None:
        """Account one executed group of ``batch`` queries of ``kind``."""
        self.queries += batch
        self.batches += 1
        self.max_batch_seen = max(self.max_batch_seen, batch)
        self.per_kind[kind] = self.per_kind.get(kind, 0) + batch


class QueryService:
    """A resident dual-tree query service over one reference set."""

    def __init__(
        self,
        references: np.ndarray,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        references = np.ascontiguousarray(
            np.asarray(references, dtype=float)
        )
        if references.ndim != 2 or references.shape[0] < 1:
            raise SpecError(
                f"references must be a non-empty (n, d) array, got shape "
                f"{references.shape}"
            )
        # Finalize once: the tree, then every array a frontier or the
        # oracle's executors would otherwise build lazily mid-request.
        # The full tree always exists — it is the serial oracle's
        # reference plane even when execution is sharded.
        self.reference_tree = build_kdtree(references, self.config.leaf_size)
        _stage(self.reference_tree)
        self.references = self.reference_tree.points
        # Shard + publish once: each shard is its own finalized tree
        # over a contiguous reference slice with its own resident
        # shared-memory publication (one shard == the classic layout).
        self._shards = self._build_shards()
        self.publication = self._shards[0].publication
        self.stats = ServiceStats()
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- startup sharding -------------------------------------------------

    def _build_shards(self) -> list[ReferenceShard]:
        """Cut, finalize, and publish the execution shards.

        With ``shards == 1`` the single shard reuses the full tree.
        Otherwise each shard tree is built over a contiguous slice, so
        a shard-local result id rebases to the global id by adding the
        slice start.
        """
        shards: list[ReferenceShard] = []
        for index, (start, stop) in enumerate(
            shard_slices(len(self.references), self.config.shards)
        ):
            if self.config.shards == 1:
                tree = self.reference_tree
            else:
                tree = build_kdtree(
                    self.references[start:stop], self.config.leaf_size
                )
                _stage(tree)
            shards.append(
                ReferenceShard(
                    index=index,
                    id_base=start,
                    tree=tree,
                    publication=SharedPublication.publish(
                        {"references": tree.points}
                    ),
                )
            )
        return shards

    # -- admission checks -------------------------------------------------

    def check_query(self, query: Query) -> None:
        """Raise :class:`SpecError` for a query this service cannot answer.

        The point must have the served dimension and finite
        coordinates, a count radius must be finite and >= 0, and a k-NN
        ``k`` must lie in 1..the reference count.  The front end calls
        this per request, so a bad query fails alone instead of failing
        the tick it would have joined.
        """
        group_key(query)  # rejects unknown query types
        dim = self.references.shape[1]
        if len(query.point) != dim:
            raise SpecError(
                f"query point has {len(query.point)} coordinates; this "
                f"service serves {dim}-dimensional points"
            )
        if not all(math.isfinite(value) for value in query.point):
            raise SpecError(f"query point {query.point} is not finite")
        if isinstance(query, CountQuery) and not (
            math.isfinite(query.radius) and query.radius >= 0
        ):
            raise SpecError(
                f"count query needs a finite radius >= 0, got {query.radius}"
            )
        if isinstance(query, KNNQuery) and not (
            1 <= query.k <= len(self.references)
        ):
            raise SpecError(
                f"knn query needs 1 <= k <= {len(self.references)} (the "
                f"reference count), got {query.k}"
            )

    # -- execution --------------------------------------------------------

    def _group_param(self, key: tuple) -> float:
        return float(key[1]) if len(key) > 1 else 1.0

    def _shard_param(self, kind: str, param: float, shard) -> float:
        """Clamp a group's parameter to one shard's capacity.

        A shard smaller than ``k`` answers with its whole point set;
        the gather pads the remaining columns — exactly what a single
        undersized tree would report.
        """
        if kind == "knn":
            return float(min(int(param), shard.num_points))
        return param

    def _execute_group(
        self, key: tuple, points: np.ndarray
    ) -> dict[str, np.ndarray]:
        kind = key[0]
        param = self._group_param(key)
        # Scatter: the identical admitted batch runs against every
        # shard (concurrently across pool workers when configured)...
        if self.config.workers > 0:
            executor = self._ensure_executor()
            futures = [
                executor.submit(
                    _worker_run_group,
                    shard.publication.handles,
                    self.config.leaf_size,
                    kind,
                    self._shard_param(kind, param, shard),
                    points,
                )
                for shard in self._shards
            ]
            shard_runs = [future.result() for future in futures]
        else:
            shard_runs = [
                _run_group(
                    shard.tree,
                    kind,
                    self._shard_param(kind, param, shard),
                    points,
                )
                for shard in self._shards
            ]
        # ...gather: exact reductions (lexicographic top-k merge for
        # NN/k-NN, integer sums for count) rebuild the full-tree
        # columns bit for bit.
        return gather_columns(
            kind,
            shard_runs,
            [shard.id_base for shard in self._shards],
            int(param) if kind == "knn" else 1,
        )

    def _demux(
        self, key: tuple, columns: dict[str, np.ndarray], row: int
    ) -> Result:
        kind = key[0]
        if kind == "nn":
            return NNResult(
                int(columns["ids"][row, 0]), float(columns["dists"][row, 0])
            )
        if kind == "knn":
            return KNNResult(
                tuple(int(i) for i in columns["ids"][row]),
                tuple(float(d) for d in columns["dists"][row]),
            )
        return CountResult(int(columns["counts"][row]))

    def execute_batch(self, queries: Sequence[Query]) -> list[Result]:
        """Answer one admitted tick, demuxed back to input order.

        Every query is checked first (:meth:`check_query`), so a bad
        one raises :class:`SpecError` before anything runs.  Queries
        are grouped by :func:`~repro.serve.protocol.group_key`; each
        group is one leaf frontier call per shard, and row ``i`` of its
        columns belongs to the group's ``i``-th query.
        """
        for query in queries:
            self.check_query(query)
        groups: dict[tuple, list[int]] = {}
        for index, query in enumerate(queries):
            groups.setdefault(group_key(query), []).append(index)
        results: list[Optional[Result]] = [None] * len(queries)
        for key, indices in groups.items():
            points = np.array(
                [queries[index].point for index in indices], dtype=float
            )
            columns = self._execute_group(key, points)
            self.stats.record(key[0], len(indices))
            for row, index in enumerate(indices):
                results[index] = self._demux(key, columns, row)
        return results  # type: ignore[return-value]

    def execute_serial(self, queries: Sequence[Query]) -> list[Result]:
        """The per-query serial oracle: one dual-tree traversal per query.

        Runs over the full, unsharded reference tree, so it checks the
        frontier, the shard gather and the pool path at once.
        """
        results: list[Result] = []
        for query in queries:
            self.check_query(query)
            key = group_key(query)
            columns = _oracle_group(
                self.reference_tree,
                key[0],
                self._group_param(key),
                query.point,
            )
            results.append(self._demux(key, columns, 0))
        return results

    # -- lifecycle --------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self.publication.closed:
            raise SpecError("query service is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=max(1, self.config.workers)
            )
        return self._executor

    def service_stats(self) -> dict:
        """Steady-state counters plus the shard layout."""
        return {
            "queries": self.stats.queries,
            "batches": self.stats.batches,
            "max_batch_seen": self.stats.max_batch_seen,
            "per_kind": dict(self.stats.per_kind),
            "backends": {
                kind: {"backend": "frontier", "order": "preorder"}
                for kind in KINDS
            },
            "references": int(len(self.references)),
            "workers": self.config.workers,
            "shards": {
                "count": len(self._shards),
                "points": [shard.num_points for shard in self._shards],
            },
        }

    def close(self) -> None:
        """Shut the pool down and unlink every publication; idempotent."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        for shard in self._shards:
            shard.publication.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
