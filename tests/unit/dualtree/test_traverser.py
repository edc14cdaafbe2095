"""Unit tests for the dual-tree -> nested-recursion lowering."""

import pytest

from repro.core import run_original
from repro.dualtree import (
    PointCorrelationRules,
    build_kdtree,
    dual_tree_footprint,
    dual_tree_spec,
)
from repro.spaces import clustered_points


@pytest.fixture
def setup():
    pts = clustered_points(100, seed=6)
    query = build_kdtree(pts, leaf_size=4)
    reference = build_kdtree(pts, leaf_size=4)
    rules = PointCorrelationRules(query, reference, radius=0.05)
    return query, reference, rules


class TestSpecShape:
    def test_spec_is_irregular(self, setup):
        query, reference, rules = setup
        spec = dual_tree_spec(query, reference, rules)
        assert spec.is_irregular
        assert spec.outer_root is query.root
        assert spec.inner_root is reference.root

    def test_internal_query_nodes_truncate_immediately(self, setup):
        query, reference, rules = setup
        spec = dual_tree_spec(query, reference, rules)
        internal = next(n for n in query.root.iter_preorder() if not n.is_leaf)
        assert spec.truncate_inner2(internal, reference.root) is True

    def test_leaf_scoring_delegates_to_rules(self, setup):
        query, reference, rules = setup
        spec = dual_tree_spec(query, reference, rules)
        leaf = query.leaves()[0]
        assert spec.truncate_inner2(leaf, reference.root) == rules.score(
            leaf, reference.root
        )


class TestExecution:
    def test_work_points_are_leaf_rows(self, setup):
        query, reference, rules = setup
        spec = dual_tree_spec(query, reference, rules)
        seen_outer = set()

        from repro.core import WorkCallback

        run_original(spec, instrument=WorkCallback(lambda o, i: seen_outer.add(o)))
        assert all(o.is_leaf for o in seen_outer)

    def test_base_case_bounded_by_all_pairs(self, setup):
        query, reference, rules = setup
        spec = dual_tree_spec(query, reference, rules)
        run_original(spec)
        assert 0 < rules.count <= 100 * 100

    def test_base_case_fires_exactly_at_reference_leaves(self, setup):
        query, reference, _rules = setup
        fired = []

        class CountingRules(PointCorrelationRules):
            def base_case(self, q, r):
                fired.append((q, r))
                super().base_case(q, r)

        counting = CountingRules(query, reference, radius=0.05)
        run_original(dual_tree_spec(query, reference, counting))
        assert fired, "no base cases at all?"
        assert all(q.is_leaf and r.is_leaf for q, r in fired)


class TestFootprint:
    def test_leaf_leaf_touches_best_and_refs(self, setup):
        query, reference, rules = setup
        footprint = dual_tree_footprint(rules)
        q_leaf, r_leaf = query.leaves()[0], reference.leaves()[0]
        touches = footprint(q_leaf, r_leaf)
        writes = [loc for loc, is_write in touches if is_write]
        reads = [loc for loc, is_write in touches if not is_write]
        assert len(writes) == q_leaf.count
        assert len(reads) == r_leaf.count

    def test_internal_reference_is_empty(self, setup):
        query, reference, rules = setup
        footprint = dual_tree_footprint(rules)
        internal = next(n for n in reference.root.iter_preorder() if not n.is_leaf)
        assert footprint(query.leaves()[0], internal) == []
