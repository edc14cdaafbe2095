"""Unit tests for the Section 7.3 task-parallel extension."""

import pytest

from repro.core import (
    NestedRecursionSpec,
    WorkRecorder,
    run_original,
    run_task_parallel,
    spawn_tasks,
    task_spec,
)
from repro.core.schedules import TWIST
from repro.errors import ScheduleError
from repro.kernels import TreeJoin
from repro.spaces import balanced_tree, paper_inner_tree, paper_outer_tree


def paper_spec(**kwargs):
    return NestedRecursionSpec(paper_outer_tree(), paper_inner_tree(), **kwargs)


class TestSpawnTasks:
    def test_depth_zero_is_one_task(self):
        tasks = spawn_tasks(paper_spec(), 0)
        assert len(tasks) == 1
        assert tasks[0].outer_root.size == 7

    def test_depth_one_splits_root_and_children(self):
        tasks = spawn_tasks(paper_spec(), 1)
        # One single-node task for the root + one per child subtree.
        assert len(tasks) == 3
        assert sorted(task.outer_root.size for task in tasks) == [1, 3, 3]

    def test_tasks_partition_the_iteration_space(self):
        spec = paper_spec()
        reference = WorkRecorder()
        run_original(spec, instrument=reference)
        collected = []
        for task in spawn_tasks(spec, 2):
            recorder = WorkRecorder()
            run_original(task_spec(task), instrument=recorder)
            collected.extend(recorder.points)
        assert sorted(collected) == sorted(reference.points)

    def test_max_depth_is_one_task_per_node(self):
        tasks = spawn_tasks(paper_spec(), 2)  # deepest level of the tree
        assert len(tasks) == 7  # one per outer node
        assert all(task.outer_root.size == 1 or task.outer_root.is_leaf
                   for task in tasks)

    def test_depth_beyond_tree_rejected_with_valid_range(self):
        with pytest.raises(ScheduleError, match=r"valid depths are 0\.\.2"):
            spawn_tasks(paper_spec(), 10)  # deeper than the tree

    def test_negative_depth_rejected(self):
        with pytest.raises(ScheduleError):
            spawn_tasks(paper_spec(), -1)

    def test_cost_estimate(self):
        tasks = spawn_tasks(paper_spec(), 1)
        assert {task.cost_estimate for task in tasks} == {7, 21}


class TestRunTaskParallel:
    def test_correct_result_under_twisting(self):
        tj = TreeJoin(63, 63)
        spec = tj.make_spec()
        run_task_parallel(spec, num_workers=4, spawn_depth=2, schedule=TWIST)
        assert tj.result == tj.expected_total()

    def test_makespan_at_most_total(self):
        report = run_task_parallel(paper_spec(), num_workers=3, spawn_depth=2)
        assert 0 < report.makespan <= report.total_cycles
        assert report.parallel_speedup >= 1.0

    def test_single_worker_equals_sequential_total(self):
        report = run_task_parallel(paper_spec(), num_workers=1, spawn_depth=2)
        assert report.makespan == report.total_cycles
        assert report.parallel_speedup == 1.0

    def test_more_workers_never_slower(self):
        spec_factory = lambda: NestedRecursionSpec(
            balanced_tree(127), balanced_tree(127)
        )
        one = run_task_parallel(spec_factory(), num_workers=1, spawn_depth=3)
        four = run_task_parallel(spec_factory(), num_workers=4, spawn_depth=3)
        assert four.makespan <= one.makespan
        assert four.parallel_speedup > 2.0  # decent load balance

    def test_work_conserved_across_workers(self):
        report = run_task_parallel(paper_spec(), num_workers=2, spawn_depth=2)
        assert report.total_cycles == 49  # default cost = work points

    def test_per_worker_instruments(self):
        recorders = [WorkRecorder(), WorkRecorder()]
        run_task_parallel(
            paper_spec(), num_workers=2, spawn_depth=2, instruments=recorders
        )
        merged = recorders[0].points + recorders[1].points
        assert len(merged) == 49
        assert len(recorders[0].points) > 0 and len(recorders[1].points) > 0

    def test_validation(self):
        with pytest.raises(ScheduleError):
            run_task_parallel(paper_spec(), num_workers=0)
        with pytest.raises(ScheduleError):
            run_task_parallel(paper_spec(), num_workers=2, instruments=[WorkRecorder()])

    def test_irregular_truncation_inside_tasks(self):
        spec = paper_spec(
            truncate_inner2=lambda o, i: o.label == "B" and i.label == 2
        )
        seen = []
        recorders = [WorkRecorder(), WorkRecorder(), WorkRecorder()]
        run_task_parallel(
            spec, num_workers=3, spawn_depth=2, schedule=TWIST,
            instruments=recorders,
        )
        for recorder in recorders:
            seen.extend(recorder.points)
        assert len(seen) == 46
        assert ("B", 2) not in set(seen)


class TestSingleNodeViewSemantics:
    """Regression: the childless task facade must not change the
    *decisions* outer-node-sensitive predicates make.

    Dual-tree specs truncate reference traversals at internal query
    nodes ("is this outer node a leaf?"); before the fix, a spawned
    parent's single-node view reported no children, so an internal
    query node executed a full reference traversal per task and the
    parallel result diverged wildly from the sequential one."""

    def _pc(self):
        from repro.dualtree import PointCorrelation
        from repro.spaces.points import clustered_points

        points = clustered_points(512, clusters=8, spread=0.05, seed=5)
        return PointCorrelation(points, radius=0.3, leaf_size=8)

    def test_dualtree_parallel_matches_sequential(self):
        pc = self._pc()
        spec = pc.make_spec()
        run_original(spec)
        sequential = pc.result

        for backend in ("recursive", "batched"):
            spec = pc.make_spec()
            run_task_parallel(
                spec, num_workers=4, spawn_depth=3, backend=backend
            )
            assert pc.result == sequential, backend

    def test_dualtree_parallel_twist_matches_sequential(self):
        pc = self._pc()
        spec = pc.make_spec()
        run_original(spec)
        sequential = pc.result
        spec = pc.make_spec()
        run_task_parallel(spec, num_workers=4, spawn_depth=3, schedule=TWIST)
        assert pc.result == sequential

    def test_view_predicates_see_real_node(self):
        from repro.core.parallel import _single_node_view, _task_spec, Task

        root = balanced_tree(7)
        seen = []
        spec = NestedRecursionSpec(
            root,
            balanced_tree(3),
            truncate_inner2=lambda o, i: bool(seen.append(len(o.children))),
        )
        task = Task(outer_root=_single_node_view(root), spec=spec)
        run_original(task_spec(task))
        # The predicate observed the real root's two children, not the
        # facade's zero.
        assert set(seen) == {2}
        assert _task_spec(task).outer_root.children == ()


class TestCostEstimates:
    """Regression: LPT weights track launchable work, not raw sizes."""

    def test_single_node_view_of_non_launching_node_is_cheap(self):
        spec = paper_spec(outer_launches_work=lambda node: not node.children)
        tasks = spawn_tasks(spec, 1)
        by_size = sorted(tasks, key=lambda t: t.outer_root.size)
        view_task = by_size[0]
        assert view_task.outer_root.size == 1
        # Internal node: cannot launch, costs one visit.
        assert view_task.cost_estimate == 1

    def test_estimates_track_actual_work(self):
        """For dual-tree PC, estimated cost must rank tasks in the same
        ballpark as the work they actually execute: every task with
        zero work points gets the minimal estimate, and the
        largest-estimate task is within the top actual workers."""
        from repro.core.instruments import OpCounter
        from repro.dualtree import PointCorrelation
        from repro.spaces.points import clustered_points

        points = clustered_points(512, clusters=8, spread=0.05, seed=9)
        pc = PointCorrelation(points, radius=0.3, leaf_size=8)
        spec = pc.make_spec()
        tasks = spawn_tasks(spec, 3)

        actuals = []
        for task in tasks:
            ops = OpCounter()
            run_original(task_spec(task), instrument=ops)
            actuals.append(ops.work_points)

        estimates = [task.cost_estimate for task in tasks]
        # Non-launching single-node tasks: minimal estimate, no work.
        for estimate, actual in zip(estimates, actuals):
            if actual == 0:
                assert estimate == min(estimates)
        # Estimates separate the no-work tasks from the real ones.
        real = [e for e, a in zip(estimates, actuals) if a > 0]
        empty = [e for e, a in zip(estimates, actuals) if a == 0]
        assert real and empty
        assert min(real) > max(empty)

    def test_rectangular_estimate_unchanged(self):
        tasks = spawn_tasks(paper_spec(), 1)
        assert {task.cost_estimate for task in tasks} == {7, 21}


class TestTruncationIsolation:
    """Section 4 flag/counter state must stay private to each task."""

    def test_task_specs_are_isolated(self):
        spec = paper_spec(truncate_inner2=lambda o, i: o.label == "B")
        for task in spawn_tasks(spec, 2):
            assert task_spec(task).isolated_truncation

    def test_isolated_runs_leave_shared_trees_untouched(self):
        from repro.core import run_interchanged, run_twisted

        spec = paper_spec(truncate_inner2=lambda o, i: i.label in (2, 4))
        tasks = spawn_tasks(spec, 1)
        shared_nodes = list(spec.outer_root.iter_preorder()) + list(
            spec.inner_root.iter_preorder()
        )
        for task in tasks:
            restricted = task_spec(task)
            run_interchanged(restricted, subtree_truncation=True)
            run_twisted(restricted, use_counters=True)
            for node in shared_nodes:
                assert node.trunc is False
                assert node.trunc_counter == -1

    def test_interleaved_tasks_match_sequential(self):
        """Simulated concurrency: alternating inner phases of two tasks
        over the SAME shared trees must reproduce each task's solo
        work set — impossible if flags leaked through tree nodes."""
        spec = paper_spec(truncate_inner2=lambda o, i: o.label == "B")
        tasks = [
            task
            for task in spawn_tasks(spec, 1)
            if task.outer_root.children
        ]
        assert len(tasks) >= 2

        def solo_points(task):
            recorder = WorkRecorder()
            from repro.core import run_interchanged

            run_interchanged(
                task_spec(task), instrument=recorder, subtree_truncation=True
            )
            return recorder.points

        expected = [solo_points(task) for task in tasks]
        # Interleave: rerun both, in lockstep by alternating runs (the
        # executors are not generators, so this exercises state left
        # behind between runs rather than true concurrency).
        observed = [solo_points(task) for task in reversed(tasks)]
        assert observed == list(reversed(expected))
