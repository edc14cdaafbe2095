"""Property-based tests: schedule invariants over random spaces.

These pin down the paper's core semantic claims for *arbitrary* tree
shapes and truncation patterns, not just the worked examples:

1. every transformed schedule executes exactly the original set of
   iterations (bounds preservation, Section 4's goal);
2. every transformed schedule preserves each outer index's inner visit
   order (intra-traversal dependence preservation, Section 3.3);
3. interchange additionally enumerates row-by-row.
"""

from hypothesis import given, strategies as st

from repro.core import (
    NestedRecursionSpec,
    WorkRecorder,
    run_interchanged,
    run_original,
    run_twisted,
    run_twisted_soa,
)
from repro.spaces import random_tree

trees = st.builds(
    random_tree,
    st.integers(min_value=1, max_value=28),
    seed=st.integers(min_value=0, max_value=10_000),
)


def blocked_pairs_strategy(max_nodes=28):
    """Random irregular truncation patterns as (o_label, i_label) sets."""
    pair = st.tuples(
        st.integers(min_value=0, max_value=max_nodes - 1),
        st.integers(min_value=0, max_value=max_nodes - 1),
    )
    return st.frozensets(pair, max_size=12)


def make_spec(outer, inner, blocked=frozenset()):
    if blocked:
        return NestedRecursionSpec(
            outer,
            inner,
            truncate_inner2=lambda o, i: (o.label, i.label) in blocked,
        )
    return NestedRecursionSpec(outer, inner)


def run_schedule(run, spec, **kwargs):
    recorder = WorkRecorder()
    run(spec, instrument=recorder, **kwargs)
    return recorder.points


def rows(points):
    by_outer = {}
    for o, i in points:
        by_outer.setdefault(o, []).append(i)
    return by_outer


class TestRegularSpaces:
    @given(outer=trees, inner=trees)
    def test_all_schedules_enumerate_full_rectangle(self, outer, inner):
        spec = make_spec(outer, inner)
        original = run_schedule(run_original, spec)
        assert len(original) == outer.size * inner.size
        for run, kwargs in [
            (run_interchanged, {}),
            (run_twisted, {}),
            (run_twisted, {"cutoff": 4}),
        ]:
            points = run_schedule(run, spec, **kwargs)
            assert sorted(points) == sorted(original), run.__name__

    @given(outer=trees, inner=trees)
    def test_intra_traversal_order_preserved(self, outer, inner):
        spec = make_spec(outer, inner)
        original_rows = rows(run_schedule(run_original, spec))
        for run in (run_interchanged, run_twisted):
            transformed_rows = rows(run_schedule(run, spec))
            assert transformed_rows == original_rows

    @given(outer=trees, inner=trees)
    def test_interchange_is_row_major(self, outer, inner):
        spec = make_spec(outer, inner)
        points = run_schedule(run_interchanged, spec)
        inner_sequence = [i for _o, i in points]
        # Row-major: the inner index is non-repeating blocks in the
        # inner tree's pre-order.
        expected = [
            i.label for i in inner.iter_preorder() for _ in range(outer.size)
        ]
        assert inner_sequence == expected


class TestIrregularSpaces:
    @given(outer=trees, inner=trees, blocked=blocked_pairs_strategy())
    def test_executed_sets_agree(self, outer, inner, blocked):
        spec = make_spec(outer, inner, blocked)
        original = set(run_schedule(run_original, spec))
        for run, kwargs in [
            (run_interchanged, {}),
            (run_interchanged, {"use_counters": True}),
            (run_interchanged, {"subtree_truncation": True}),
            (run_twisted, {}),
            (run_twisted, {"use_counters": True}),
            (run_twisted, {"subtree_truncation": False}),
            (run_twisted, {"cutoff": 3}),
        ]:
            points = run_schedule(run, spec, **kwargs)
            assert len(points) == len(set(points)), "duplicated iteration"
            assert set(points) == original, (run.__name__, kwargs)

    @given(outer=trees, inner=trees, blocked=blocked_pairs_strategy())
    def test_intra_traversal_order_preserved_irregular(
        self, outer, inner, blocked
    ):
        spec = make_spec(outer, inner, blocked)
        original_rows = rows(run_schedule(run_original, spec))
        for run in (run_interchanged, run_twisted):
            assert rows(run_schedule(run, spec)) == original_rows

    @given(outer=trees, inner=trees, blocked=blocked_pairs_strategy())
    def test_truncation_state_restored(self, outer, inner, blocked):
        spec = make_spec(outer, inner, blocked)
        run_twisted(spec)
        for node in outer.iter_preorder():
            assert node.trunc is False

    @given(tree=trees, blocked=blocked_pairs_strategy())
    def test_self_join_irregular_equivalence(self, tree, blocked):
        # Outer and inner may be the SAME tree (Section 3.2 allows it);
        # the flag/counter slots then live on shared nodes, and the
        # machinery must still reproduce the original's executed set.
        spec = make_spec(tree, tree, blocked)
        original = set(run_schedule(run_original, spec))
        for run, kwargs in [
            (run_interchanged, {}),
            (run_twisted, {}),
            (run_twisted, {"use_counters": True}),
        ]:
            points = run_schedule(run, spec, **kwargs)
            assert set(points) == original, (run.__name__, kwargs)
            assert len(points) == len(set(points))

    @given(outer=trees, inner=trees, blocked=blocked_pairs_strategy())
    def test_iterative_twist_exact_parity(self, outer, inner, blocked):
        # The explicit-stack executor is schedule-identical to the
        # recursive one on arbitrary shapes and truncation patterns.
        spec = make_spec(outer, inner, blocked)
        recursive = run_schedule(run_twisted, spec, subtree_truncation=False)
        iterative = run_schedule(run_twisted_soa, spec, subtree_truncation=False)
        assert iterative == recursive
