"""The level-by-level kd-tree build against the per-node recursive build.

``build_kdtree`` computes every node's box with one reduction per level
and partitions equal-length slices as the rows of one array.  The
reference below is the recursive per-node build it replaced; the two
must give the same tree: the same index permutation, and per node (in
pre-order) the same slice, box, children, size, number and leaf ids.
Boxes are compared bit for bit after ``+ 0.0``, which maps ``-0.0`` to
``0.0``: when a box edge is zero and the input holds both zeros, which
zero a NumPy min/max reduction keeps depends on its SIMD blocking, so
two reductions over the same values may disagree on the sign.  Nothing
reads that sign (splits compare widths, distances square the gaps).

The staged leaf blocks are checked against the per-leaf loop they
replaced.
"""

import sys

import numpy as np
from hypothesis import given, strategies as st

from repro.dualtree.batch import build_leaf_blocks
from repro.dualtree.boxes import HRect
from repro.dualtree.kdtree import build_kdtree
from repro.dualtree.spatial import SpatialNode, make_tree
from repro.dualtree.vptree import build_vptree


def recursive_build(points: np.ndarray, leaf_size: int):
    """The per-node recursive kd-tree build (the level build's reference)."""
    points = np.asarray(points, dtype=float)
    indices = np.arange(points.shape[0])

    def build(start: int, end: int) -> SpatialNode:
        slice_ids = indices[start:end]
        slice_points = points[slice_ids]
        node = SpatialNode(HRect.of_points(slice_points), start, end)
        count = end - start
        if count <= leaf_size:
            return node
        widths = slice_points.max(axis=0) - slice_points.min(axis=0)
        axis = int(np.argmax(widths))
        if widths[axis] == 0.0:
            return node
        half = count // 2
        order = np.argpartition(slice_points[:, axis], half)
        indices[start:end] = slice_ids[order]
        node.children = (build(start, start + half), build(start + half, end))
        return node

    return make_tree(points, build(0, points.shape[0]), indices, leaf_size)


def loop_leaf_blocks(tree):
    """The per-leaf staging loop ``build_leaf_blocks`` replaced."""
    leaves = tree.leaves()
    capacity = max(leaf.count for leaf in leaves)
    dim = tree.points.shape[1]
    points = np.zeros((len(leaves), capacity, dim), dtype=tree.points.dtype)
    ids = np.full((len(leaves), capacity), -1, dtype=np.int64)
    valid = np.zeros((len(leaves), capacity), dtype=bool)
    counts = np.zeros(len(leaves), dtype=np.intp)
    row_of = {}
    for row, leaf in enumerate(leaves):
        owned = tree.indices[leaf.start : leaf.end]
        points[row, : len(owned)] = tree.points[owned]
        ids[row, : len(owned)] = owned
        valid[row, : len(owned)] = True
        counts[row] = len(owned)
        row_of[leaf.number] = row
    return points, ids, valid, counts, row_of


def box_bits(values) -> bytes:
    return (np.array(values, dtype=float) + 0.0).tobytes()


def node_record(node):
    return (
        node.start,
        node.end,
        box_bits(node.bound.mins),
        box_bits(node.bound.maxs),
        len(node.children),
        node.number,
        node.size,
        node.point_ids,
    )


@st.composite
def grid_points(draw):
    """Coarse-grid points: ties on every axis, repeated and all-equal blocks."""
    n = draw(st.integers(min_value=1, max_value=3000))
    dim = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.integers(min_value=1, max_value=6))
    points = (rng.integers(-steps, steps + 1, size=(n, dim)) * 0.25).astype(float)
    for _ in range(draw(st.integers(0, 3))):  # a block repeated elsewhere
        length = int(rng.integers(1, n + 1))
        src, dst = rng.integers(0, n - length + 1, size=2)
        points[dst : dst + length] = points[src : src + length].copy()
    for _ in range(draw(st.integers(0, 2))):  # a block of one point
        length = int(rng.integers(1, n + 1))
        start = int(rng.integers(0, n - length + 1))
        points[start : start + length] = points[start]
    if draw(st.booleans()):  # both zeros on the same axes
        points[(points == 0.0) & (rng.random(points.shape) < 0.5)] = -0.0
    return points


class TestLevelBuildMatchesRecursiveBuild:
    @given(points=grid_points(), leaf_size=st.integers(min_value=1, max_value=64))
    def test_same_tree(self, points, leaf_size):
        expected = recursive_build(points, leaf_size)
        actual = build_kdtree(points, leaf_size)
        assert actual.indices.dtype == expected.indices.dtype
        assert np.array_equal(actual.indices, expected.indices)
        assert [node_record(n) for n in actual.root.iter_preorder()] == [
            node_record(n) for n in expected.root.iter_preorder()
        ]

    @given(points=grid_points(), leaf_size=st.integers(min_value=1, max_value=64))
    def test_same_leaf_blocks(self, points, leaf_size):
        for tree in (build_kdtree(points, leaf_size), build_vptree(points, leaf_size)):
            blocks = build_leaf_blocks(tree)
            points_, ids, valid, counts, row_of = loop_leaf_blocks(tree)
            for actual, expected in (
                (blocks.points, points_),
                (blocks.ids, ids),
                (blocks.valid, valid),
                (blocks.counts, counts),
            ):
                assert actual.dtype == expected.dtype
                assert actual.shape == expected.shape
                assert actual.tobytes() == expected.tobytes()
            assert list(blocks.row_of.items()) == list(row_of.items())

    def test_edge_sizes(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 22, 4097):
            for leaf_size in (1, 3, 8, 64):
                points = rng.random((n, 3))
                expected = recursive_build(points, leaf_size)
                actual = build_kdtree(points, leaf_size)
                assert np.array_equal(actual.indices, expected.indices)
                assert [node_record(x) for x in actual.root.iter_preorder()] == [
                    node_record(x) for x in expected.root.iter_preorder()
                ]

    def test_the_build_leaves_the_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("build_kdtree changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        tree = build_kdtree(np.random.default_rng(3).random((1000, 2)), 1)
        tree.validate()
