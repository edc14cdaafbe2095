"""Unit tests for the explicit-stack (SoA) original and interchanged
executors: event parity with the recursive ones, and depth beyond any
recursion limit."""

import sys

from repro.core import (
    AccessTraceRecorder,
    NestedRecursionSpec,
    OpCounter,
    WorkRecorder,
    combine,
    run_interchanged,
    run_interchanged_soa,
    run_original,
    run_original_soa,
)
from repro.spaces import balanced_tree, list_tree, paper_inner_tree, paper_outer_tree


def paper_spec(**kwargs):
    return NestedRecursionSpec(paper_outer_tree(), paper_inner_tree(), **kwargs)


def iterative_points(spec):
    """``(outer, inner)`` labels in the order the explicit-stack work ran."""
    points = []
    spec.work = lambda o, i: points.append((o.label, i.label))
    run_original_soa(spec)
    return points


class TestOriginalIterative:
    def test_identical_event_stream(self):
        spec = paper_spec(truncate_inner2=lambda o, i: o.label == "B" and i.label == 2)
        recursive = (WorkRecorder(), AccessTraceRecorder(), OpCounter())
        iterative = (WorkRecorder(), AccessTraceRecorder(), OpCounter())
        run_original(spec, instrument=combine(*recursive))
        run_original_soa(spec, instrument=combine(*iterative))
        assert recursive[0].points == iterative[0].points
        assert recursive[1].trace == iterative[1].trace
        assert recursive[2].counts == iterative[2].counts

    def test_handles_extreme_depth(self):
        # 50k-deep outer tree: impossible recursively even with a
        # raised limit in reasonable memory.
        spec = NestedRecursionSpec(list_tree(50_000), list_tree(1))
        ops = OpCounter()
        limit = sys.getrecursionlimit()
        run_original_soa(spec, instrument=ops)
        assert ops.work_points == 50_000
        assert sys.getrecursionlimit() == limit

    def test_work_called(self):
        total = []
        spec = NestedRecursionSpec(
            balanced_tree(3), balanced_tree(3), work=lambda o, i: total.append(1)
        )
        run_original_soa(spec)
        assert len(total) == 9


class TestIterPoints:
    def test_yields_node_pairs(self):
        spec = paper_spec()
        recorder = WorkRecorder()
        run_original(spec, instrument=recorder)
        assert iterative_points(spec) == recorder.points

    def test_respects_irregular_truncation(self):
        spec = paper_spec(truncate_inner2=lambda o, i: o.label == "B" and i.label == 2)
        assert len(iterative_points(spec)) == 46


class TestInterchangedIterative:
    def test_matches_recursive_interchange(self):
        spec = paper_spec()
        recursive, iterative = WorkRecorder(), WorkRecorder()
        run_interchanged(spec, instrument=recursive)
        run_interchanged_soa(spec, instrument=iterative)
        assert recursive.points == iterative.points
