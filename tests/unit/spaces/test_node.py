"""Unit tests for the index-node protocol and tree finalization."""

import pytest

from repro.errors import SpecError
from repro.spaces import (
    TreeNode,
    tree_depth,
    tree_from_nested,
    tree_nodes,
    validate_index_node,
)


def build_small():
    return tree_from_nested(("a", ("b", "c", None), "d"))


class TestTreeStructure:
    def test_preorder_iteration_order(self):
        root = build_small()
        assert [n.label for n in root.iter_preorder()] == ["a", "b", "c", "d"]

    def test_sizes_count_subtree_nodes(self):
        root = build_small()
        sizes = {n.label: n.size for n in root.iter_preorder()}
        assert sizes == {"a": 4, "b": 2, "c": 1, "d": 1}

    def test_preorder_numbers_are_dense(self):
        root = build_small()
        assert [n.number for n in root.iter_preorder()] == [0, 1, 2, 3]

    def test_subtree_occupies_number_range(self):
        # The Section 4.3 counter optimization depends on this exact
        # invariant: subtree of node = [number, number + size).
        root = build_small()
        for node in root.iter_preorder():
            numbers = sorted(child.number for child in node.iter_preorder())
            assert numbers == list(range(node.number, node.number + node.size))

    def test_is_leaf(self):
        root = build_small()
        leaves = {n.label for n in root.iter_preorder() if n.is_leaf}
        assert leaves == {"c", "d"}

    def test_left_right_accessors(self):
        root = build_small()
        assert root.left.label == "b"
        assert root.right.label == "d"
        leaf = root.right
        assert leaf.left is None and leaf.right is None

    def test_tree_depth(self):
        assert tree_depth(build_small()) == 3
        assert tree_depth(None) == 0
        assert tree_depth(TreeNode("x")) == 1

    def test_tree_nodes_handles_none(self):
        assert tree_nodes(None) == []
        assert len(tree_nodes(build_small())) == 4


class TestTruncationState:
    def test_defaults(self):
        node = TreeNode("x")
        assert node.trunc is False
        assert node.trunc_counter == -1

    def test_reset_clears_whole_subtree(self):
        root = build_small()
        for node in root.iter_preorder():
            node.trunc = True
            node.trunc_counter = 5
        root.reset_truncation_state()
        for node in root.iter_preorder():
            assert node.trunc is False
            assert node.trunc_counter == -1


class TestValidation:
    def test_accepts_tree_node(self):
        validate_index_node(TreeNode("x"))

    def test_rejects_plain_object(self):
        with pytest.raises(SpecError, match="index-node protocol"):
            validate_index_node(object())

    def test_deep_tree_iteration_is_not_recursive(self):
        # 10k-deep list tree would blow the default recursion limit if
        # iter_preorder recursed.
        from repro.spaces import list_tree

        root = list_tree(10_000)
        assert sum(1 for _ in root.iter_preorder()) == 10_000
        assert root.size == 10_000
