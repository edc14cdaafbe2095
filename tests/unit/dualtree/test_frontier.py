"""Point frontiers: exact answers, descent edges, block edges, working set.

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
from repro.dualtree.frontier import count_frontier, knn_frontier, node_arrays
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


def leaf_boxes(tree):
    """(leaves, dim) lower and upper leaf-box corners, in leaf-block rows."""
    arrays = node_arrays(tree)
    leaves = np.flatnonzero(arrays.leaf_row >= 0)
    return arrays.lo[leaves], arrays.hi[leaves]


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
        lo, hi = leaf_boxes(tree)
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


def leaf_depths(tree):
    depths, stack = [], [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            depths.append(depth)
        stack.extend((child, depth + 1) for child in node.children)
    return depths


class TestDescentEdges:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("grid", [True, False])
    def test_radius_equal_to_a_node_max_distance(self, dim, grid):
        # A radius equal to a node's computed max-distance from the
        # query is where whole-node inclusion meets leaf evaluation:
        # both must count the same points.  Grid coordinates put
        # duplicate points on box faces and queries on box corners;
        # random ones in one-point leaves make the max-distance the
        # point's distance, where any rounding slack would show.
        rng = np.random.default_rng(dim)
        if grid:
            base = rng.integers(0, 5, size=(150, dim)) / 4.0
        else:
            base = rng.random((150, dim))
        references = np.concatenate([base, base[:50]])
        tree = build_kdtree(references, 4 if grid else 1)
        arrays = node_arrays(tree)
        corners = np.concatenate([arrays.lo, arrays.hi])
        for query in corners[rng.choice(len(corners), 8, replace=False)]:
            query = query[None, :] if grid else rng.random((1, dim))
            _, reach = frontier._box_dists(query, arrays.lo, arrays.hi, far=True)
            for radius in reach[rng.choice(len(reach), 40, replace=False)]:
                got = count_frontier(query, tree, float(radius))["counts"]
                assert np.array_equal(
                    got, brute_counts(query, references, float(radius))
                )
        queries = corners[rng.choice(len(corners), 30, replace=False)]
        for k in (1, 4, 9):
            assert_knn_exact(queries, tree, k)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("leaf_size", [2, 8])
    def test_k_three_times_the_leaf_size(self, dim, leaf_size):
        references = reference_set(400, dim, seed=dim + 20, duplicates=30)
        tree = build_kdtree(references, leaf_size)
        queries = reference_set(25, dim, seed=dim + 30)
        assert_knn_exact(queries, tree, 3 * leaf_size)

    def test_degenerate_oversized_leaf(self):
        # All points equal: the build cannot split, so the root is one
        # leaf holding every point; inside a larger set the same block
        # becomes an oversized leaf above the cut level.
        equal = np.full((60, 2), 0.375)
        tree = build_kdtree(equal, 4)
        assert tree.root.is_leaf and tree.root.count == 60
        queries = np.array([[0.375, 0.375], [0.0, 1.0]])
        for k in (1, 7, 60):
            assert_knn_exact(queries, tree, k)
        for radius in (0.0, 0.1, 0.7):
            got = count_frontier(queries, tree, radius)["counts"]
            assert np.array_equal(got, brute_counts(queries, equal, radius))
        block = np.full((400, 2), 0.375)
        references = np.concatenate([reference_set(2000, 2, seed=6), block])
        tree = build_kdtree(references, 4)
        arrays = node_arrays(tree)
        on_cut = arrays.cut[arrays.leaf_row[arrays.cut] >= 0]
        assert (arrays.count[on_cut] > 4).any()  # an oversized cut leaf
        queries = np.concatenate([block[:2], reference_set(20, 2, seed=7)])
        for k in (1, 5, 401):
            assert_knn_exact(queries, tree, k)
        for radius in (0.0, 0.05, 0.3):
            got = count_frontier(queries, tree, radius)["counts"]
            assert np.array_equal(got, brute_counts(queries, references, radius))

    @pytest.mark.parametrize("n", [22, 352, 1400])
    def test_leaves_at_mixed_depths(self, n):
        references = reference_set(n, 3, seed=n)
        tree = build_kdtree(references, 5)
        assert len(set(leaf_depths(tree))) > 1
        queries = reference_set(30, 3, seed=n + 1)
        for k in (1, 6):
            assert_knn_exact(queries, tree, k)
        for radius in (0.05, 0.4):
            got = count_frontier(queries, tree, radius)["counts"]
            assert np.array_equal(got, brute_counts(queries, references, radius))


class TestBlockEdges:
    @pytest.mark.parametrize(
        "row_entries, active_pairs, pair_entries", [(7, 3, 5), (61, 2, 53)]
    )
    def test_small_blocks_give_identical_columns(
        self, monkeypatch, row_entries, active_pairs, pair_entries
    ):
        references = reference_set(200, 3, seed=8, duplicates=40)
        tree = build_kdtree(references, 3)
        queries = reference_set(23, 3, seed=9)
        wide_knn = knn_frontier(queries, tree, 4)
        wide_count = count_frontier(queries, tree, 0.4)
        monkeypatch.setattr(frontier, "ROW_ENTRIES", row_entries)
        monkeypatch.setattr(frontier, "ACTIVE_PAIRS", active_pairs)
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
        node_arrays(tree)
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
    def test_node_arrays_follow_the_tree(self):
        tree = build_kdtree(reference_set(100, 2, seed=2), 4)
        arrays = node_arrays(tree)
        assert node_arrays(tree) is arrays  # cached on the tree
        blocks = leaf_blocks(tree)
        for node in tree.root.iter_preorder():
            number = node.number
            assert tuple(arrays.lo[number]) == node.bound.mins
            assert tuple(arrays.hi[number]) == node.bound.maxs
            assert arrays.count[number] == node.count
            leaves = [n for n in node.iter_preorder() if n.is_leaf]
            rows = [blocks.row_of[leaf.number] for leaf in leaves]
            assert rows == list(
                range(arrays.first_leaf[number], arrays.stop_leaf[number])
            )
            if node.is_leaf:
                assert arrays.leaf_row[number] == blocks.row_of[number]
                assert list(arrays.children[number]) == [-1, -1]
            else:
                assert arrays.leaf_row[number] == -1
                assert list(arrays.children[number]) == [
                    child.number for child in node.children
                ]
        # The cut: every root-to-leaf path crosses it exactly once.
        cut = set(arrays.cut.tolist())
        for leaf in tree.leaves():
            path = [
                node.number
                for node in tree.root.iter_preorder()
                if node.number <= leaf.number < node.number + node.size
            ]
            assert len(cut.intersection(path)) == 1

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
