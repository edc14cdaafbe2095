"""Reference-set sharding: scatter one tick, gather exact answers.

The serving data plane can hold the reference set as ``N`` independent
kd-trees over contiguous slices of the published point array.  A tick
is *scattered* — the identical admitted-point batch runs against every
shard — and the per-shard result columns are *gathered* back into
exactly the columns the single-tree run would have produced.  Both gathers reuse reductions this repo has already proven:

* **NN / k-NN** answers are *set states*: the final ``(dists, ids)``
  rows are the k lexicographically smallest ``(distance, id)`` pairs
  over the whole candidate set, an outcome independent of merge order
  and batch shape (the ``ServeKnnRules`` invariant).  Each shard's
  answer is *its* exact top-``min(k, shard_n)`` — a superset of the
  global top-k members that live in that shard — and a point's
  distance to the query is a function of the two coordinate tuples
  alone, so it is bit-identical no matter which tree holds the point.  Concatenating the shard rows
  (local ids rebased to global), lexicographically sorting, and taking
  the first ``k`` therefore reproduces the full-tree answer bit for
  bit, padding (``inf``/:data:`~repro.serve.rules.PAD_ID`) sorting
  last by construction.
* **count** answers are order-independent integer sums over disjoint
  reference subsets; the gather is an exact ``sum`` of the per-shard
  count columns.

Shard boundaries are plain ``(start, stop)`` slices of the reference
array, so a shard-local id ``i`` is global id ``start + i`` — the same
identity ``build_kdtree`` relies on (it permutes *indices*, never the
point array).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dualtree.frontier import PAD_ID
from repro.dualtree.spatial import SpatialTree
from repro.errors import SpecError
from repro.spaces.soa import SharedPublication


def shard_slices(num_points: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, non-empty, balanced ``(start, stop)`` slices."""
    if shards < 1:
        raise SpecError(f"shards must be >= 1, got {shards}")
    if shards > num_points:
        raise SpecError(
            f"cannot cut {num_points} reference points into {shards} "
            "non-empty shards"
        )
    bounds = [round(i * num_points / shards) for i in range(shards + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(shards)]


@dataclass
class ReferenceShard:
    """One slice of the reference set, finalized and published."""

    #: shard position in the scatter order
    index: int
    #: global id of this shard's local id 0
    id_base: int
    #: the shard's own finalized kd-tree
    tree: SpatialTree
    #: resident shared-memory publication pool workers attach to
    publication: SharedPublication

    @property
    def num_points(self) -> int:
        return self.tree.num_points


def rebase_ids(ids: np.ndarray, id_base: int) -> np.ndarray:
    """Shard-local result ids -> global ids; padding stays padding."""
    if id_base == 0:
        return ids
    rebased = ids.copy()
    rebased[rebased != PAD_ID] += id_base
    return rebased


def _pad_neighbor_columns(
    columns: dict[str, np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Widen one shard's (dists, ids) to ``k`` columns with padding.

    A shard smaller than ``k`` legitimately answers with fewer
    neighbors; the pad values are the same sentinels a single
    undersized tree would produce.
    """
    dists, ids = columns["dists"], columns["ids"]
    width = dists.shape[1]
    if width == k:
        return dists, ids
    batch = dists.shape[0]
    wide_d = np.full((batch, k), np.inf)
    wide_i = np.full((batch, k), PAD_ID, dtype=np.int64)
    wide_d[:, :width] = dists
    wide_i[:, :width] = ids
    return wide_d, wide_i


def gather_neighbor_columns(
    shard_columns: Sequence[dict[str, np.ndarray]],
    id_bases: Sequence[int],
    k: int,
) -> dict[str, np.ndarray]:
    """Exact NN/k-NN gather: rebase, concatenate, lexsort, take k.

    The sort key is ``(distance, global id)`` — the identical
    tie-breaking a single tree's top-k applies — so the gathered rows
    are the rows the full tree would have written.
    """
    if len(shard_columns) != len(id_bases):
        raise SpecError(
            f"{len(shard_columns)} shard results for {len(id_bases)} shards"
        )
    if len(shard_columns) == 1:
        return dict(shard_columns[0])
    dist_parts, id_parts = [], []
    for columns, id_base in zip(shard_columns, id_bases):
        dists, ids = _pad_neighbor_columns(columns, k)
        dist_parts.append(dists)
        id_parts.append(rebase_ids(ids, id_base))
    all_d = np.concatenate(dist_parts, axis=1)
    all_i = np.concatenate(id_parts, axis=1)
    order = np.lexsort((all_i, all_d), axis=1)[:, :k]
    return {
        "dists": np.take_along_axis(all_d, order, axis=1),
        "ids": np.take_along_axis(all_i, order, axis=1),
    }


def gather_count_columns(
    shard_columns: Sequence[dict[str, np.ndarray]],
) -> dict[str, np.ndarray]:
    """Exact count gather: integer sum over disjoint reference slices."""
    if len(shard_columns) == 1:
        return dict(shard_columns[0])
    total: Optional[np.ndarray] = None
    for columns in shard_columns:
        counts = columns["counts"]
        total = counts.copy() if total is None else total + counts
    assert total is not None
    return {"counts": total}


def gather_columns(
    kind: str,
    shard_columns: Sequence[dict[str, np.ndarray]],
    id_bases: Sequence[int],
    k: int,
) -> dict[str, np.ndarray]:
    """Dispatch the exact gather for one query kind."""
    if kind == "count":
        return gather_count_columns(shard_columns)
    return gather_neighbor_columns(shard_columns, id_bases, k)
