"""Unit tests for the explicit-stack (batched) original and interchanged
executors: event parity with the recursive ones, and depth beyond any
recursion limit."""

from repro.core import (
    AccessTraceRecorder,
    NestedRecursionSpec,
    OpCounter,
    WorkRecorder,
    combine,
    run_interchanged,
    run_interchanged_batched,
    run_original,
    run_original_batched,
)
from repro.spaces import balanced_tree, list_tree, paper_inner_tree, paper_outer_tree


def paper_spec(**kwargs):
    return NestedRecursionSpec(paper_outer_tree(), paper_inner_tree(), **kwargs)


def batched_points(spec):
    """``(outer, inner)`` labels in the order the batched work ran."""
    points = []
    spec.work = lambda o, i: points.append((o.label, i.label))
    run_original_batched(spec)
    return points


class TestOriginalIterative:
    def test_identical_event_stream(self):
        spec = paper_spec(truncate_inner2=lambda o, i: o.label == "B" and i.label == 2)
        recursive = (WorkRecorder(), AccessTraceRecorder(), OpCounter())
        iterative = (WorkRecorder(), AccessTraceRecorder(), OpCounter())
        run_original(spec, instrument=combine(*recursive))
        run_original_batched(spec, instrument=combine(*iterative))
        assert recursive[0].points == iterative[0].points
        assert recursive[1].trace == iterative[1].trace
        assert recursive[2].counts == iterative[2].counts

    def test_handles_extreme_depth(self):
        # 50k-deep outer tree: impossible recursively even with a
        # raised limit in reasonable memory.
        spec = NestedRecursionSpec(list_tree(50_000), list_tree(1))
        ops = OpCounter()
        run_original_batched(spec, instrument=ops)
        assert ops.work_points == 50_000

    def test_work_called(self):
        total = []
        spec = NestedRecursionSpec(
            balanced_tree(3), balanced_tree(3), work=lambda o, i: total.append(1)
        )
        run_original_batched(spec)
        assert len(total) == 9


class TestIterPoints:
    def test_yields_node_pairs(self):
        spec = paper_spec()
        recorder = WorkRecorder()
        run_original(spec, instrument=recorder)
        assert batched_points(spec) == recorder.points

    def test_respects_irregular_truncation(self):
        spec = paper_spec(truncate_inner2=lambda o, i: o.label == "B" and i.label == 2)
        assert len(batched_points(spec)) == 46


class TestInterchangedIterative:
    def test_matches_recursive_interchange(self):
        spec = paper_spec()
        recursive, iterative = WorkRecorder(), WorkRecorder()
        run_interchanged(spec, instrument=recursive)
        run_interchanged_batched(spec, instrument=iterative)
        assert recursive.points == iterative.points
