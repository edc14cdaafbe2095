"""Point-level leaf frontiers: exact answers, block edges, working set.

The reference for every answer is brute force over the whole reference
set with the oracle's own distance expression
(``_pairwise_distances``): the k smallest ``(distance, id)`` pairs, and
the number of distances ``<=`` the radius.  Comparisons are bitwise.
"""

import tracemalloc

import numpy as np
import pytest

from repro.dualtree import frontier
from repro.dualtree.batch import leaf_blocks
from repro.dualtree.frontier import count_frontier, knn_frontier, leaf_bounds
from repro.dualtree.kdtree import build_kdtree
from repro.dualtree.rules import _pairwise_distances
from repro.dualtree.vptree import build_vptree
from repro.errors import SpecError
from repro.spaces.points import clustered_points


def reference_set(n, dim, seed, duplicates=0):
    rng = np.random.default_rng(seed)
    if dim == 2:
        points = clustered_points(n, clusters=6, spread=0.06, seed=seed)
    else:
        points = rng.random((n, dim))
    if duplicates:
        points = np.concatenate([points, points[:duplicates]])
        points = points[rng.permutation(len(points))]
    return points


def brute_top_k(queries, references, k):
    distances = _pairwise_distances(queries, references)
    ids = np.broadcast_to(np.arange(len(references)), distances.shape)
    order = np.lexsort((ids, distances), axis=1)[:, :k]
    return (
        np.take_along_axis(ids, order, axis=1),
        np.take_along_axis(distances, order, axis=1),
    )


def brute_counts(queries, references, radius):
    return (_pairwise_distances(queries, references) <= radius).sum(axis=1)


def assert_knn_exact(queries, tree, k):
    got = knn_frontier(queries, tree, k)
    ids, dists = brute_top_k(queries, tree.points, k)
    assert np.array_equal(got["ids"], ids)
    # Bitwise: the same float64 pattern, not merely close.
    assert got["dists"].tobytes() == dists.tobytes()


class TestExactAnswers:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("k", [1, 5])
    def test_knn_matches_brute_force(self, dim, k):
        references = reference_set(300, dim, seed=dim)
        tree = build_kdtree(references, 8)
        queries = reference_set(40, dim, seed=dim + 100)
        assert_knn_exact(queries, tree, k)

    def test_k_equal_to_the_reference_count(self):
        references = reference_set(60, 3, seed=4)
        tree = build_kdtree(references, 4)
        assert_knn_exact(reference_set(9, 3, seed=5), tree, 60)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_counts_match_brute_force(self, dim):
        references = reference_set(300, dim, seed=dim)
        tree = build_kdtree(references, 8)
        queries = reference_set(40, dim, seed=dim + 100)
        for radius in (0.0, 0.1, 0.35, 5.0):
            got = count_frontier(queries, tree, radius)["counts"]
            assert got.dtype == np.int64
            assert np.array_equal(got, brute_counts(queries, references, radius))

    @pytest.mark.parametrize("dim", [2, 8])
    def test_duplicates_tie_break_by_id(self, dim):
        # Exact duplicates land in different (often zero-volume) leaves;
        # the smallest ids must win every distance tie.  A zero-volume
        # leaf's min-distance is the distance to its points, so at 8
        # dimensions this also pins the rows' summation order: summed
        # axis by axis, it can exceed the pairwise-summed distance by
        # an ulp and drop a tied candidate.
        references = reference_set(150, dim, seed=11, duplicates=150)
        tree = build_kdtree(references, 2)
        queries = np.concatenate(
            [references[:20], references[:20] + 1e-3]
        )
        for k in (1, 2, 3, 7):
            assert_knn_exact(queries, tree, k)

    def test_queries_on_leaf_box_edges(self):
        references = reference_set(200, 2, seed=3)
        tree = build_kdtree(references, 4)
        lo, hi = leaf_bounds(tree)
        # A corner of every leaf box: distance-zero ties on box faces.
        queries = np.concatenate([lo, hi, np.stack([lo[:, 0], hi[:, 1]], 1)])
        assert_knn_exact(queries, tree, 3)
        radius = float(_pairwise_distances(queries[:1], references)[0, 7])
        got = count_frontier(queries, tree, radius)["counts"]
        assert np.array_equal(got, brute_counts(queries, references, radius))

    def test_empty_query_batch(self):
        tree = build_kdtree(reference_set(30, 2, seed=1), 4)
        empty = np.zeros((0, 2))
        assert knn_frontier(empty, tree, 3)["ids"].shape == (0, 3)
        assert count_frontier(empty, tree, 0.2)["counts"].shape == (0,)


class TestBlockEdges:
    @pytest.mark.parametrize("row_entries, pair_entries", [(7, 5), (61, 53)])
    def test_small_blocks_give_identical_columns(
        self, monkeypatch, row_entries, pair_entries
    ):
        references = reference_set(200, 3, seed=8, duplicates=40)
        tree = build_kdtree(references, 3)
        queries = reference_set(23, 3, seed=9)
        wide_knn = knn_frontier(queries, tree, 4)
        wide_count = count_frontier(queries, tree, 0.4)
        monkeypatch.setattr(frontier, "ROW_ENTRIES", row_entries)
        monkeypatch.setattr(frontier, "PAIR_ENTRIES", pair_entries)
        narrow_knn = knn_frontier(queries, tree, 4)
        narrow_count = count_frontier(queries, tree, 0.4)
        assert np.array_equal(narrow_knn["ids"], wide_knn["ids"])
        assert narrow_knn["dists"].tobytes() == wide_knn["dists"].tobytes()
        assert np.array_equal(narrow_count["counts"], wide_count["counts"])


class TestWorkingSet:
    def test_a_256_point_tick_peaks_under_2_mib(self):
        references = clustered_points(16384, clusters=24, spread=0.05, seed=31)
        tree = build_kdtree(references, 8)
        leaf_blocks(tree)
        leaf_bounds(tree)
        queries = clustered_points(256, clusters=24, spread=0.05, seed=32)
        peaks = {}
        tracemalloc.start()
        try:
            for name, run in (
                ("count", lambda: count_frontier(queries, tree, 0.3)),
                ("knn", lambda: knn_frontier(queries, tree, 5)),
            ):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        for name, peak in peaks.items():
            assert peak < 2 * 1024 * 1024, (name, peak)


class TestContract:
    def test_leaf_bounds_follow_leaf_block_rows(self):
        tree = build_kdtree(reference_set(100, 2, seed=2), 4)
        lo, hi = leaf_bounds(tree)
        assert leaf_bounds(tree)[0] is lo  # cached on the tree
        blocks = leaf_blocks(tree)
        for row, leaf in enumerate(tree.leaves()):
            assert blocks.row_of[leaf.number] == row
            assert tuple(lo[row]) == leaf.bound.mins
            assert tuple(hi[row]) == leaf.bound.maxs

    def test_bad_inputs_rejected(self):
        tree = build_kdtree(reference_set(20, 2, seed=1), 4)
        point = np.array([[0.5, 0.5]])
        with pytest.raises(SpecError, match="k=0"):
            knn_frontier(point, tree, 0)
        with pytest.raises(SpecError, match="k=21"):
            knn_frontier(point, tree, 21)
        with pytest.raises(SpecError, match="expected"):
            knn_frontier(np.array([[0.5, 0.5, 0.5]]), tree, 1)
        with pytest.raises(SpecError, match="radius"):
            count_frontier(point, tree, -0.1)
        with pytest.raises(SpecError, match="radius"):
            count_frontier(point, tree, float("nan"))

    def test_ball_bounded_trees_refused(self):
        tree = build_vptree(reference_set(20, 2, seed=1), 4)
        with pytest.raises(SpecError, match="hyperrectangle"):
            knn_frontier(np.array([[0.5, 0.5]]), tree, 1)
