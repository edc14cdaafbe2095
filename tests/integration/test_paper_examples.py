"""Integration tests: every concrete number the paper prints.

These are the reproduction's regression anchors — the paper's worked
examples have exact expected values, and the library must hit them all.
"""

import pytest

from repro.bench.experiments import run_fig1_fig4
from repro.bench.experiments.fig1_fig4 import (
    PAPER_ORIGINAL_NODE5,
    PAPER_TWISTED_NODE5,
)
from repro.core import (
    AccessTraceRecorder,
    NestedRecursionSpec,
    WorkRecorder,
    run_original,
    run_twisted,
)
from repro.memory import distances_of_key
from repro.spaces import IterationSpace, paper_inner_tree, paper_outer_tree


class TestSection11:
    def test_join_called_49_times(self):
        # "If this code is called on the two trees in Figure 1(b), the
        # result is that join will be called 49 times."
        spec = NestedRecursionSpec(paper_outer_tree(), paper_inner_tree())
        recorder = WorkRecorder()
        run_original(spec, instrument=recorder)
        assert len(recorder.points) == 49


class TestSection32WorkedExample:
    @pytest.fixture
    def traces(self):
        outer, inner = paper_outer_tree(), paper_inner_tree()
        spec = NestedRecursionSpec(outer, inner)
        node5 = next(n for n in inner.iter_preorder() if n.label == 5)
        original = AccessTraceRecorder()
        run_original(spec, instrument=original)
        twisted = AccessTraceRecorder()
        run_twisted(spec, instrument=twisted)
        return original.trace, twisted.trace, node5

    def test_original_reuse_distances_of_node5(self, traces):
        # "the reuse distances for node 5 ... are, in order of
        # execution, [inf, 8, 8, 8, 8, 8, 8]"
        original, _twisted, node5 = traces
        assert distances_of_key(original, ("inner", node5.number)) == [
            None, 8, 8, 8, 8, 8, 8,
        ]

    def test_twisted_reuse_distances_of_node5(self, traces):
        # "In the twisted schedule, the reuse distances are
        # [inf, 10, 3, 3, 10, 3, 3]"
        _original, twisted, node5 = traces
        assert distances_of_key(twisted, ("inner", node5.number)) == [
            None, 10, 3, 3, 10, 3, 3,
        ]

    def test_experiment_driver_agrees(self):
        report, data = run_fig1_fig4()
        assert data["original_node5"] == PAPER_ORIGINAL_NODE5
        assert data["twisted_node5"] == PAPER_TWISTED_NODE5
        assert "Figure" in report.render()


class TestSection4Example:
    def figure6_truncation(self, o, i):
        # "if (i == null || (o.label == B && i.label == 2)) return;"
        return o.label == "B" and i.label == 2

    def test_exactly_three_iterations_skipped(self):
        spec = NestedRecursionSpec(
            paper_outer_tree(),
            paper_inner_tree(),
            truncate_inner2=self.figure6_truncation,
        )
        recorder = WorkRecorder()
        run_original(spec, instrument=recorder)
        space = IterationSpace.from_trees(
            spec.outer_root, spec.inner_root, executed=recorder.points
        )
        assert space.skipped() == {("B", 2), ("B", 3), ("B", 4)}

    def test_irregular_pattern_is_outer_dependent(self):
        # "this pattern of skipped iterations is not the same for every
        # outer-recursion index; the iterations are only skipped for
        # index B."
        spec = NestedRecursionSpec(
            paper_outer_tree(),
            paper_inner_tree(),
            truncate_inner2=self.figure6_truncation,
        )
        recorder = WorkRecorder()
        run_original(spec, instrument=recorder)
        executed = set(recorder.points)
        for outer_label in "ACDEFG":
            for inner_label in range(1, 8):
                assert (outer_label, inner_label) in executed


class TestFigure4bTiles:
    def test_3x3_tiles_visible(self):
        # "indeed, 3x3 tiles are visible in the schedule of Fig. 4(b)"
        spec = NestedRecursionSpec(paper_outer_tree(), paper_inner_tree())
        recorder = WorkRecorder()
        run_twisted(spec, instrument=recorder)
        tiles = [
            {(o, i) for o in "BCD" for i in (2, 3, 4)},
            {(o, i) for o in "BCD" for i in (5, 6, 7)},
            {(o, i) for o in "EFG" for i in (2, 3, 4)},
            {(o, i) for o in "EFG" for i in (5, 6, 7)},
        ]
        for tile in tiles:
            positions = [k for k, p in enumerate(recorder.points) if p in tile]
            assert max(positions) - min(positions) == 8  # contiguous 9 points
