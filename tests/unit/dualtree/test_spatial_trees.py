"""Unit tests for kd-tree and vp-tree builders."""

import numpy as np
import pytest

from repro.dualtree import build_kdtree, build_vptree
from repro.dualtree.boxes import Ball, HRect
from repro.spaces import uniform_points


@pytest.fixture(params=["kd", "vp"])
def builder(request):
    return {"kd": build_kdtree, "vp": build_vptree}[request.param]


class TestCommonInvariants:
    def test_structural_validation(self, builder, small_points):
        tree = builder(small_points, leaf_size=8)
        tree.validate()

    def test_all_points_indexed(self, builder, small_points):
        tree = builder(small_points, leaf_size=4)
        assert sorted(tree.indices.tolist()) == list(range(len(small_points)))

    def test_leaf_ids_populated(self, builder, small_points):
        tree = builder(small_points, leaf_size=8)
        ids = [pid for leaf in tree.leaves() for pid in leaf.point_ids]
        assert sorted(ids) == list(range(len(small_points)))

    def test_sizes_and_numbers_finalized(self, builder, small_points):
        tree = builder(small_points, leaf_size=8)
        assert tree.root.size == tree.num_nodes
        numbers = [n.number for n in tree.root.iter_preorder()]
        assert numbers == list(range(tree.num_nodes))

    def test_single_point(self, builder):
        tree = builder(np.array([[0.5, 0.5]]), leaf_size=4)
        assert tree.num_nodes == 1
        assert tree.root.is_leaf

    def test_duplicate_points_terminate(self, builder):
        pts = np.zeros((40, 2))
        tree = builder(pts, leaf_size=4)
        # Degenerate input: builders must not recurse forever; the
        # oversized leaf is acceptable.
        assert tree.num_points == 40

    def test_input_validation(self, builder):
        with pytest.raises(ValueError):
            builder(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            builder(np.zeros((5, 2)), leaf_size=0)


class TestKdSpecifics:
    def test_bounds_are_tight_hrects(self, small_points):
        tree = build_kdtree(small_points, leaf_size=8)
        assert isinstance(tree.root.bound, HRect)
        assert tree.root.bound.mins == tuple(small_points.min(axis=0))
        assert tree.root.bound.maxs == tuple(small_points.max(axis=0))

    def test_roughly_balanced(self):
        tree = build_kdtree(uniform_points(1024, seed=3), leaf_size=1)
        from repro.spaces import tree_depth

        # Median splits: depth ~ log2(1024) + small constant.
        assert tree_depth(tree.root) <= 14

    def test_leaf_size_respected(self, small_points):
        tree = build_kdtree(small_points, leaf_size=5)
        assert all(leaf.count <= 5 for leaf in tree.leaves())


class TestVpSpecifics:
    def test_bounds_are_balls(self, small_points):
        tree = build_vptree(small_points, leaf_size=8)
        assert isinstance(tree.root.bound, Ball)

    def test_deterministic_for_seed(self, small_points):
        a = build_vptree(small_points, leaf_size=8, seed=4)
        b = build_vptree(small_points, leaf_size=8, seed=4)
        assert np.array_equal(a.indices, b.indices)

    def test_split_partitions_by_distance(self, small_points):
        tree = build_vptree(small_points, leaf_size=8)
        for node in tree.root.iter_preorder():
            if node.is_leaf:
                continue
            near, far = node.children
            center = node.bound.center
            near_max = max(
                np.sqrt(((tree.points[tree.indices[near.start:near.end]] - center) ** 2).sum(1))
            )
            far_min = min(
                np.sqrt(((tree.points[tree.indices[far.start:far.end]] - center) ** 2).sum(1))
            )
            assert near_max <= far_min + 1e-9
