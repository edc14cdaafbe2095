"""Unit tests for the explicit-stack (batched) twisted executor."""

import pytest

from repro.core import (
    AccessTraceRecorder,
    NestedRecursionSpec,
    OpCounter,
    WorkRecorder,
    combine,
    run_twisted,
    run_twisted_batched,
)
from repro.spaces import list_tree, paper_inner_tree, paper_outer_tree, random_tree


def parity_check(spec, **kwargs):
    """Assert byte-for-byte event parity with the recursive executor."""
    recursive = (WorkRecorder(), AccessTraceRecorder(), OpCounter())
    run_twisted(
        spec,
        instrument=combine(*recursive),
        subtree_truncation=False,
        **kwargs,
    )
    iterative = (WorkRecorder(), AccessTraceRecorder(), OpCounter())
    run_twisted_batched(
        spec, instrument=combine(*iterative), subtree_truncation=False, **kwargs
    )
    assert iterative[0].points == recursive[0].points
    assert iterative[1].trace == recursive[1].trace
    assert iterative[2].counts == recursive[2].counts


class TestParity:
    def test_paper_trees(self):
        parity_check(NestedRecursionSpec(paper_outer_tree(), paper_inner_tree()))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees(self, seed):
        spec = NestedRecursionSpec(
            random_tree(25, seed=seed), random_tree(19, seed=seed + 50)
        )
        parity_check(spec)

    @pytest.mark.parametrize("cutoff", [0, 3, 100])
    def test_cutoffs(self, cutoff):
        spec = NestedRecursionSpec(random_tree(20, seed=1), random_tree(20, seed=2))
        parity_check(spec, cutoff=cutoff)

    def test_irregular_flags(self):
        spec = NestedRecursionSpec(
            paper_outer_tree(),
            paper_inner_tree(),
            truncate_inner2=lambda o, i: o.label in "BE" and i.label in (2, 5),
        )
        parity_check(spec)

    def test_irregular_counters(self):
        spec = NestedRecursionSpec(
            random_tree(22, seed=3),
            random_tree(22, seed=4),
            truncate_inner2=lambda o, i: (o.label * i.label) % 5 == 1,
        )
        parity_check(spec, use_counters=True)


class TestDeepSpaces:
    def test_deep_list_trees_without_recursion(self):
        # Depth far beyond anything the recursive executor could take
        # without dangerous recursion limits.
        spec = NestedRecursionSpec(list_tree(20_000), list_tree(3))
        ops = OpCounter()
        run_twisted_batched(spec, instrument=ops)
        assert ops.work_points == 60_000

    def test_results_correct_on_deep_trees(self):
        from repro.kernels import TreeJoin

        tj = TreeJoin(2000, 5)
        # Rebuild the outer tree as a degenerate list for depth.
        run_twisted_batched(tj.make_spec())
        assert tj.result == tj.expected_total()
