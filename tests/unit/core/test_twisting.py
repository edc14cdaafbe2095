"""Unit tests for recursion twisting (Figure 4a)."""

from repro.core import (
    NestedRecursionSpec,
    OpCounter,
    WorkRecorder,
    run_original,
    run_twisted,
)
from repro.spaces import balanced_tree, list_tree, paper_inner_tree, paper_outer_tree


def paper_spec(**kwargs):
    return NestedRecursionSpec(paper_outer_tree(), paper_inner_tree(), **kwargs)


class TestFigure4Schedule:
    def test_exact_paper_schedule(self):
        # Hand-derived from Figure 4(a)'s pseudocode; the Section 3.2
        # reuse distances confirm this is the paper's Figure 4(b).
        recorder = WorkRecorder()
        run_twisted(paper_spec(), instrument=recorder)
        assert recorder.points[:10] == [
            ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7),
            ("B", 1), ("C", 1), ("D", 1),
        ]
        # The 3x3 tile over {B,C,D} x {2,3,4}:
        assert recorder.points[10:19] == [
            ("B", 2), ("B", 3), ("B", 4),
            ("C", 2), ("C", 3), ("C", 4),
            ("D", 2), ("D", 3), ("D", 4),
        ]

    def test_same_iterations_as_original(self):
        spec = paper_spec()
        original, twisted = WorkRecorder(), WorkRecorder()
        run_original(spec, instrument=original)
        run_twisted(spec, instrument=twisted)
        assert sorted(original.points) == sorted(twisted.points)

    def test_per_outer_inner_order_preserved(self):
        # The intra-traversal invariant that makes twisting sound
        # whenever interchange is sound (Section 3.3).
        spec = paper_spec()
        original, twisted = WorkRecorder(), WorkRecorder()
        run_original(spec, instrument=original)
        run_twisted(spec, instrument=twisted)
        for outer_label in "ABCDEFG":
            assert [i for o, i in original.points if o == outer_label] == [
                i for o, i in twisted.points if o == outer_label
            ]


class TestListTreesDegenerate:
    def test_twisting_list_trees_is_safe(self):
        # List trees offer no size hierarchy; twisting must still
        # enumerate every iteration exactly once.
        spec = NestedRecursionSpec(list_tree(5), list_tree(4))
        original, twisted = WorkRecorder(), WorkRecorder()
        run_original(spec, instrument=original)
        run_twisted(spec, instrument=twisted)
        assert sorted(original.points) == sorted(twisted.points)


class TestCutoff:
    def test_huge_cutoff_reproduces_original_order(self):
        # cutoff >= inner tree size: never twist.
        spec = paper_spec()
        original, cut = WorkRecorder(), WorkRecorder()
        run_original(spec, instrument=original)
        run_twisted(spec, instrument=cut, cutoff=7)
        assert cut.points == original.points

    def test_zero_cutoff_is_parameterless(self):
        spec = paper_spec()
        parameterless, cut = WorkRecorder(), WorkRecorder()
        run_twisted(spec, instrument=parameterless)
        run_twisted(spec, instrument=cut, cutoff=0)
        assert cut.points == parameterless.points

    def test_intermediate_cutoff_still_complete(self):
        spec = NestedRecursionSpec(balanced_tree(31), balanced_tree(31))
        original, cut = WorkRecorder(), WorkRecorder()
        run_original(spec, instrument=original)
        run_twisted(spec, instrument=cut, cutoff=7)
        assert sorted(original.points) == sorted(cut.points)

    def test_cutoff_reduces_bookkeeping(self):
        spec = NestedRecursionSpec(balanced_tree(63), balanced_tree(63))
        free, cut = OpCounter(), OpCounter()
        run_twisted(spec, instrument=free)
        run_twisted(spec, instrument=cut, cutoff=15)
        assert cut.counts["call"] < free.counts["call"]


class TestIrregularTwisting:
    def truncation(self, o, i):
        return o.label == "B" and i.label == 2

    def test_executed_set_matches_original(self):
        spec = paper_spec(truncate_inner2=self.truncation)
        original, twisted = WorkRecorder(), WorkRecorder()
        run_original(spec, instrument=original)
        run_twisted(spec, instrument=twisted)
        assert set(original.points) == set(twisted.points)
        assert len(twisted.points) == 46

    def test_counter_mode_equivalent(self):
        spec = paper_spec(truncate_inner2=self.truncation)
        flags, counters = WorkRecorder(), WorkRecorder()
        run_twisted(spec, instrument=flags)
        run_twisted(spec, instrument=counters, use_counters=True)
        assert flags.points == counters.points

    def test_subtree_truncation_preserves_set(self):
        spec = paper_spec(truncate_inner2=lambda o, i: i.label == 2)
        with_opt, without = WorkRecorder(), WorkRecorder()
        run_twisted(spec, instrument=with_opt, subtree_truncation=True)
        run_twisted(spec, instrument=without, subtree_truncation=False)
        assert set(with_opt.points) == set(without.points)

    def test_twist_visits_fewer_than_interchange(self):
        # The Section 4.2 claim: twisting's regular phases can truncate
        # structurally, so it visits far fewer points than interchange.
        from repro.core import run_interchanged

        spec = NestedRecursionSpec(
            balanced_tree(63),
            balanced_tree(63),
            truncate_inner2=lambda o, i: (o.number + i.number) % 3 == 0,
        )
        twist, interchange, original = OpCounter(), OpCounter(), OpCounter()
        run_original(spec, instrument=original)
        run_twisted(spec, instrument=twist)
        run_interchanged(spec, instrument=interchange)
        assert original.counts["visit"] <= twist.counts["visit"]
        assert twist.counts["visit"] < interchange.counts["visit"]

    def test_truncation_state_cleaned_up(self):
        spec = paper_spec(truncate_inner2=self.truncation)
        run_twisted(spec)
        for node in spec.outer_root.iter_preorder():
            assert node.trunc is False
