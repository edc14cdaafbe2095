"""Unit tests for the real multi-worker runtime (Section 7.3 on hardware)."""

import os

import pytest

from repro.core import NestedRecursionSpec
from repro.core.backend_select import (
    PARALLEL_SPACE_POINTS,
    choose_backend,
)
from repro.core.parallel import run_task_parallel
from repro.core.parallel_exec import (
    ParallelExecReport,
    ParallelPlan,
    check_outer_independence,
    run_parallel,
)
from repro.core.schedules import BACKENDS, ORIGINAL, TWIST
from repro.errors import ParallelWorkerError, ScheduleError
from repro.kernels import TreeJoin
from repro.spaces import paper_inner_tree, paper_outer_tree


def shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


def serial_result(case):
    ORIGINAL.run(case.make_spec(), backend="recursive")
    return repr(case.result())


class TestSixBenchmarksRoundTrip:
    """Every benchmark, both engines, bit-identical to serial."""

    @pytest.fixture(scope="class")
    def cases(self):
        from repro.bench.workloads import all_cases

        return all_cases(0.02)

    @pytest.mark.parametrize("engine", ["process", "thread"])
    def test_bit_identical_to_serial(self, cases, engine):
        before = shm_entries()
        for case in cases:
            expected = serial_result(case)
            spec = case.make_spec()
            report = run_parallel(
                spec, schedule=ORIGINAL, engine=engine, max_workers=2
            )
            assert isinstance(report, ParallelExecReport)
            assert repr(case.result()) == expected, (case.name, engine)
        assert shm_entries() == before

    def test_twist_schedule_process_engine(self, cases):
        case = cases[0]  # TJ
        expected = serial_result(case)
        run_parallel(
            case.make_spec(), schedule=TWIST, engine="process", max_workers=2
        )
        assert repr(case.result()) == expected


class TestIndependenceGate:
    def test_spec_without_plan_is_refused(self):
        spec = NestedRecursionSpec(paper_outer_tree(), paper_inner_tree())
        with pytest.raises(ScheduleError, match="plan"):
            run_parallel(spec, max_workers=2)

    def test_unproven_plan_is_refused_citing_tw030(self):
        tj = TreeJoin(63, 63)
        spec = tj.make_spec()
        # Opaque side effects keep the TW21x static pass from proving
        # independence, so the gate falls back to the (absent) witness.
        shared: dict = {}

        def opaque_work(o, i):
            shared[id(o)] = i

        spec.work = opaque_work
        plan = spec.parallel_plan
        spec.parallel_plan = ParallelPlan(
            factory=plan.factory,
            arrays=plan.arrays,
            params=plan.params,
            results=plan.results,
            apply=plan.apply,
            make_probe=None,  # no witness: independence unproven
            witness_key="test-unproven",
        )
        with pytest.raises(ScheduleError, match="TW030"):
            run_parallel(spec, engine="thread", max_workers=2)

    def test_allow_unproven_overrides_the_gate(self):
        tj = TreeJoin(63, 63)
        expected = tj.expected_total()
        spec = tj.make_spec()
        plan = spec.parallel_plan
        spec.parallel_plan = ParallelPlan(
            factory=plan.factory,
            arrays=plan.arrays,
            params=plan.params,
            results=plan.results,
            apply=plan.apply,
            make_probe=None,
            witness_key="test-unproven-override",
        )
        run_parallel(
            spec, engine="thread", max_workers=2, allow_unproven=True
        )
        assert tj.result == expected

    def test_treejoin_witness_is_proven(self):
        spec = TreeJoin(63, 63).make_spec()
        proven, why = check_outer_independence(spec.parallel_plan)
        assert proven
        assert "proven parallel" in why


class TestBackendSelection:
    def test_parallel_chosen_on_big_space_multicore_host(
        self, monkeypatch, refuse_compiled
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        spec = TreeJoin(1023, 1023).make_spec()
        choice = choose_backend(spec)
        assert (
            spec.outer_root.size * spec.inner_root.size
            >= PARALLEL_SPACE_POINTS
        )
        assert choice.backend == "parallel"
        assert choice.order == "veb"
        assert "proven-parallel plan" in choice.reason

    def test_lowerable_spec_picks_compiled_over_parallel(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        spec = TreeJoin(1023, 1023).make_spec()
        assert (
            spec.outer_root.size * spec.inner_root.size
            >= PARALLEL_SPACE_POINTS
        )
        choice = choose_backend(spec)
        assert (choice.backend, choice.order) == ("compiled", "veb")
        assert any(code.startswith("TW20") for code in choice.evidence)

    def test_parallel_never_chosen_on_single_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        choice = choose_backend(TreeJoin(1023, 1023).make_spec())
        # Serial fallback: TJ is lowerable, so the fused backend wins.
        assert choice.backend == "compiled"

    def test_small_space_stays_serial_with_veb_recommendation(
        self, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        choice = choose_backend(TreeJoin(255, 255).make_spec())
        assert choice.backend == "compiled"
        assert choice.order == "veb"
        assert "lowerable" in choice.reason

    def test_unproven_plan_refused_by_selector(
        self, monkeypatch, refuse_compiled
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # Defeat the TW21x static proof so the selector needs the
        # (removed) dynamic witness — and must refuse parallelism.
        import repro.core.parallel_exec as parallel_exec

        monkeypatch.setattr(
            parallel_exec, "_static_independence_proof", lambda spec: None
        )
        tj = TreeJoin(1023, 1023)
        spec = tj.make_spec()
        plan = spec.parallel_plan
        spec.parallel_plan = ParallelPlan(
            factory=plan.factory,
            arrays=plan.arrays,
            params=plan.params,
            results=plan.results,
            apply=plan.apply,
            make_probe=None,
            witness_key="test-selector-unproven",
        )
        choice = choose_backend(spec)
        # Refused parallelism falls through to the serial rules, where
        # TJ's (here unlowerable) SoA kernel lands on soa.
        assert choice.backend == "soa"


class TestScheduleRunParallel:
    def test_backend_registered(self):
        assert "parallel" in BACKENDS

    def test_schedule_run_dispatches_to_the_runtime(self):
        tj = TreeJoin(63, 63)
        expected = tj.expected_total()
        ORIGINAL.run(tj.make_spec(), backend="parallel")
        assert tj.result == expected

    def test_instruments_rejected(self):
        from repro.core.instruments import OpCounter

        with pytest.raises(ScheduleError, match="instrument"):
            ORIGINAL.run(
                TreeJoin(63, 63).make_spec(),
                instrument=OpCounter(),
                backend="parallel",
            )

    def test_run_task_parallel_real_engine_round_trip(self):
        tj = TreeJoin(63, 63)
        expected = tj.expected_total()
        report = run_task_parallel(
            tj.make_spec(), num_workers=2, spawn_depth=2, engine="thread"
        )
        assert isinstance(report, ParallelExecReport)
        assert tj.result == expected

    def test_simulated_engine_unchanged(self):
        spec = NestedRecursionSpec(paper_outer_tree(), paper_inner_tree())
        report = run_task_parallel(
            spec, num_workers=2, spawn_depth=2, engine="simulated"
        )
        # The historical modeled-cycle report, bit for bit.
        assert report.total_cycles == 49
        assert not isinstance(report, ParallelExecReport)


class TestWorkerFailure:
    """Satellite 6: original tracebacks surface, no segment leaks."""

    @pytest.mark.parametrize("engine", ["process", "thread"])
    def test_fault_surfaces_original_traceback(self, engine):
        before = shm_entries()
        tj = TreeJoin(63, 63)
        spec = tj.make_spec()
        spec.parallel_plan.params["inject_fault"] = True
        with pytest.raises(ParallelWorkerError) as excinfo:
            run_parallel(spec, engine=engine, max_workers=2)
        message = str(excinfo.value)
        assert "injected worker fault" in message
        assert "original worker traceback" in message
        assert "RuntimeError" in excinfo.value.worker_traceback
        assert shm_entries() == before


class TestReport:
    def test_speedup_arithmetic(self):
        report = ParallelExecReport(
            engine="process",
            num_workers=2,
            spawn_depth=3,
            schedule="original",
            task_counts=[3, 2],
            worker_seconds=[2.0, 1.0],
            wall_seconds=2.5,
        )
        assert report.num_tasks == 5
        assert report.makespan == 2.0
        assert report.total_seconds == 3.0
        assert report.parallel_speedup == 1.5
