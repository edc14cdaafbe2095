"""Unit tests for recursion interchange (Figure 3 + Section 4 flags)."""

from repro.core import (
    NestedRecursionSpec,
    OpCounter,
    WorkRecorder,
    run_interchanged,
    run_original,
)
from repro.spaces import paper_inner_tree, paper_outer_tree


def paper_spec(**kwargs):
    return NestedRecursionSpec(paper_outer_tree(), paper_inner_tree(), **kwargs)


class TestRegularInterchange:
    def test_row_major_enumeration(self):
        recorder = WorkRecorder()
        run_interchanged(paper_spec(), instrument=recorder)
        expected = [(o, i) for i in range(1, 8) for o in "ABCDEFG"]
        assert recorder.points == expected

    def test_same_iterations_as_original(self):
        original, interchanged = WorkRecorder(), WorkRecorder()
        spec = paper_spec()
        run_original(spec, instrument=original)
        run_interchanged(spec, instrument=interchanged)
        assert set(original.points) == set(interchanged.points)

    def test_per_outer_row_order_preserved(self):
        # Intra-traversal dependences (Section 3.3): for each outer
        # node, the inner visit order must match the original.
        spec = paper_spec()
        original, interchanged = WorkRecorder(), WorkRecorder()
        run_original(spec, instrument=original)
        run_interchanged(spec, instrument=interchanged)
        for outer_label in "ABCDEFG":
            row_original = [i for o, i in original.points if o == outer_label]
            row_interchanged = [i for o, i in interchanged.points if o == outer_label]
            assert row_original == row_interchanged


class TestIrregularInterchange:
    def truncation(self, o, i):
        return o.label == "B" and i.label == 2

    def test_flags_suppress_implicitly_skipped_points(self):
        spec = paper_spec(truncate_inner2=self.truncation)
        original, interchanged = WorkRecorder(), WorkRecorder()
        run_original(spec, instrument=original)
        run_interchanged(spec, instrument=interchanged)
        assert set(original.points) == set(interchanged.points)
        assert ("B", 3) not in set(interchanged.points)

    def test_flag_is_unset_after_subtree(self):
        # (B,5) must execute: node 5 is outside 2's subtree, so the
        # flag set at (B,2) has to be released by then (Figure 6b's
        # unTrunc bookkeeping).
        spec = paper_spec(truncate_inner2=self.truncation)
        recorder = WorkRecorder()
        run_interchanged(spec, instrument=recorder)
        assert ("B", 5) in set(recorder.points)

    def test_flags_cleaned_up_after_run(self):
        spec = paper_spec(truncate_inner2=self.truncation)
        run_interchanged(spec)
        for node in spec.outer_root.iter_preorder():
            assert node.trunc is False

    def test_counter_mode_equivalent(self):
        spec = paper_spec(truncate_inner2=self.truncation)
        flags, counters = WorkRecorder(), WorkRecorder()
        run_interchanged(spec, instrument=flags)
        run_interchanged(spec, instrument=counters, use_counters=True)
        assert flags.points == counters.points

    def test_counter_mode_has_no_unset_ops(self):
        spec = paper_spec(truncate_inner2=self.truncation)
        ops = OpCounter()
        run_interchanged(spec, instrument=ops, use_counters=True)
        assert ops.counts["flag_unset"] == 0
        assert ops.counts["counter_set"] >= 1

    def test_full_cross_product_visited(self):
        # Interchange cannot truncate: all 49 points are visited even
        # though only 46 execute (the Section 4.2 work explosion).
        spec = paper_spec(truncate_inner2=self.truncation)
        ops = OpCounter()
        run_interchanged(spec, instrument=ops)
        assert ops.counts["visit"] == 49
        assert ops.work_points == 46


class TestSubtreeTruncation:
    def test_cuts_off_fully_truncated_regions(self):
        # Truncate EVERY outer node at inner node 2: the whole subtree
        # of 2 can then be skipped by the swapped recursion.
        spec = paper_spec(truncate_inner2=lambda o, i: i.label == 2)
        plain, subtree = OpCounter(), OpCounter()
        run_interchanged(spec, instrument=plain)
        run_interchanged(spec, instrument=subtree, subtree_truncation=True)
        assert subtree.counts["visit"] < plain.counts["visit"]
        # Both execute the same set of iterations.
        assert subtree.work_points == plain.work_points == 7 * 4

    def test_results_unchanged(self):
        spec = paper_spec(truncate_inner2=lambda o, i: i.label == 2)
        a, b = WorkRecorder(), WorkRecorder()
        run_interchanged(spec, instrument=a)
        run_interchanged(spec, instrument=b, subtree_truncation=True)
        assert set(a.points) == set(b.points)
