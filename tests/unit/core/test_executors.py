"""Unit tests for the original (Figure 2) schedule executor."""

import pytest

from repro.core import (
    AccessTraceRecorder,
    NestedRecursionSpec,
    OpCounter,
    WorkRecorder,
    combine,
    run_original,
)
from repro.spaces import list_tree, paper_inner_tree, paper_outer_tree


@pytest.fixture
def paper_spec():
    return NestedRecursionSpec(paper_outer_tree(), paper_inner_tree())


class TestOrder:
    def test_column_major_enumeration(self, paper_spec):
        recorder = WorkRecorder()
        run_original(paper_spec, instrument=recorder)
        expected = [
            (o, i) for o in "ABCDEFG" for i in range(1, 8)
        ]
        assert recorder.points == expected

    def test_list_trees_behave_like_loops(self):
        spec = NestedRecursionSpec(list_tree(3), list_tree(2))
        recorder = WorkRecorder()
        run_original(spec, instrument=recorder)
        assert recorder.points == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
        ]

    def test_access_order_inner_before_outer(self, paper_spec):
        trace = AccessTraceRecorder()
        run_original(paper_spec, instrument=trace)
        assert trace.trace[0][0] == "inner"
        assert trace.trace[1][0] == "outer"


class TestTruncation:
    def test_truncate_outer_prunes_subtree(self):
        outer = paper_outer_tree()
        spec = NestedRecursionSpec(
            outer,
            paper_inner_tree(),
            truncate_outer=lambda o: o.label == "B",
        )
        recorder = WorkRecorder()
        run_original(spec, instrument=recorder)
        visited_outer = {o for o, _ in recorder.points}
        # B, C, D are all pruned: C and D are implicitly skipped.
        assert visited_outer == {"A", "E", "F", "G"}

    def test_truncate_inner1_prunes_per_traversal(self):
        spec = NestedRecursionSpec(
            paper_outer_tree(),
            paper_inner_tree(),
            truncate_inner1=lambda i: i.label == 2,
        )
        recorder = WorkRecorder()
        run_original(spec, instrument=recorder)
        visited_inner = {i for _, i in recorder.points}
        assert visited_inner == {1, 5, 6, 7}

    def test_truncate_inner2_figure6_example(self, paper_spec):
        # The Section 4 example: skip subtree of 2 for outer node B.
        spec = NestedRecursionSpec(
            paper_spec.outer_root,
            paper_spec.inner_root,
            truncate_inner2=lambda o, i: o.label == "B" and i.label == 2,
        )
        recorder = WorkRecorder()
        run_original(spec, instrument=recorder)
        skipped = {("B", 2), ("B", 3), ("B", 4)}
        assert set(recorder.points) == {
            (o, i) for o in "ABCDEFG" for i in range(1, 8)
        } - skipped


class TestInstrumentation:
    def test_work_runs_when_provided(self, paper_spec):
        total = []
        spec = NestedRecursionSpec(
            paper_spec.outer_root,
            paper_spec.inner_root,
            work=lambda o, i: total.append(1),
        )
        run_original(spec)
        assert len(total) == 49

    def test_op_counts(self, paper_spec):
        ops = OpCounter()
        run_original(paper_spec, instrument=ops)
        # outer calls: 7 nodes + no truncated ones (leaves have no
        # children, so calls == nodes); inner calls: 7 per outer node.
        assert ops.counts["call"] == 7 + 49
        assert ops.counts["visit"] == 49
        assert ops.work_points == 49
        assert ops.accesses == 98

    def test_no_instrument_is_fine(self, paper_spec):
        run_original(paper_spec)  # must not raise

    def test_combined_instruments_all_fire(self, paper_spec):
        works, ops = WorkRecorder(), OpCounter()
        run_original(paper_spec, instrument=combine(works, ops))
        assert len(works.points) == ops.work_points == 49


class TestDeepSpaces:
    def test_deep_list_trees_do_not_overflow(self):
        # 3000-deep nesting would exceed the default interpreter limit;
        # the executor's recursion guard must handle it.
        spec = NestedRecursionSpec(list_tree(1500), list_tree(1500))
        ops = OpCounter()
        # Only count — 2.25M works would be slow with full recording.
        run_original(
            NestedRecursionSpec(list_tree(1500), list_tree(2)), instrument=ops
        )
        assert ops.work_points == 3000
