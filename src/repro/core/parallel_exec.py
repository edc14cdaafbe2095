"""Real multi-core task parallelism over shared-memory SoA trees (§7.3).

:mod:`repro.core.parallel` *models* the paper's Section 7.3 recipe —
spawn independent outer subtrees as tasks, twist only inside tasks —
on simulated workers.  This module executes the same decomposition on
hardware:

* the **process engine** publishes the spec's finalized input arrays
  (packed SoA payload/topology columns, matrices, point sets) once via
  ``multiprocessing.shared_memory``; workers attach zero-copy and
  rebuild the spec locally from a module-level *worker factory*, so a
  task submission ships only ``(outer_rank, is_view)`` descriptors plus
  the schedule, order and the parent's concrete task backend — never
  pickled trees, and never a selection left for the worker to make;
* the **thread engine** runs the identical chunk runner on
  ``ThreadPoolExecutor`` workers sharing the parent's arrays directly,
  the right choice when ``work_batch_soa`` kernels spend their time in
  GIL-releasing NumPy calls.

Both engines reuse the simulated runtime's machinery unchanged: the
spawn decomposition (:func:`~repro.core.parallel.spawn_tasks`), the
LPT placement (:func:`~repro.core.parallel.lpt_assign`), and the
single-node-view task restriction
(:func:`~repro.core.parallel.task_spec`) — a measured run executes
exactly the task layout the simulation modeled.  Whatever ``schedule``
the caller picks is applied *inside* each task, per the paper's "once
recursion twisting is applied, it is no longer sound to treat outer
recursions as independent" — twisting across tasks is unrepresentable
here by construction.

Outputs come back through declared
:class:`~repro.spaces.soa.ResultColumn` s: ``shared`` columns are
written in place at disjoint slots (MM's output cells, per-query
neighbor state), ``sum`` columns are worker-private and reduced in the
parent in deterministic worker order.  Together with the per-query
ordering argument of Section 3.3 (each query's inner-traversal order
is preserved within its one owning task), this makes parallel results
**bit-identical** to serial execution — the integration tests assert
it on all six benchmarks and across engines.

Parallelism is *refused* unless outer-independence is proven: the plan
carries a witness (a small probe instance plus its soundness
footprint), and :func:`check_outer_independence` runs it once under
:class:`~repro.core.soundness.FootprintRecorder`, accepting only when
:func:`~repro.core.soundness.outer_parallel_violations` is empty —
the same write-keyed-by-outer-index criterion the static analyzer's
TW030 diagnostic decides from the AST.  ``allow_unproven=True`` is the
explicit override, as elsewhere in the backend selector.
"""

from __future__ import annotations

import importlib
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

from repro.core.parallel import (
    Task,
    _real_node,
    _single_node_view,
    _SingleNodeView,
    auto_spawn_depth,
    lpt_assign,
    spawn_tasks,
    task_spec,
)
from repro.core.schedules import ORIGINAL, Schedule, get_schedule
from repro.core.soundness import (
    Footprint,
    FootprintRecorder,
    outer_parallel_violations,
)
from repro.core.spec import NestedRecursionSpec
from repro.errors import ParallelWorkerError, ScheduleError
from repro.spaces.soa import (
    ResultColumn,
    attach_shared_arrays,
    close_shared_segments,
    export_shared_arrays,
    reduce_sum_columns,
)

#: Engines this module provides (the simulated one lives in
#: :mod:`repro.core.parallel`).
REAL_ENGINES = ("process", "thread")

#: Executor families a caller may name for the tasks.  ``auto`` is
#: resolved once, in the parent, so workers never run the selector.
TASK_BACKENDS = ("recursive", "batched", "soa", "auto")


@dataclass
class ParallelPlan:
    """How the real runtime rebuilds one spec inside workers.

    Attached to a spec as ``spec.parallel_plan`` by the benchmark's
    ``make_spec``.  Everything a worker needs is picklable
    (``factory`` is a dotted path, ``arrays`` travel as shared-memory
    handles); everything parent-side (``apply``, ``make_probe``) never
    crosses the process boundary.

    ``factory`` — ``"package.module:function"`` resolving to::

        factory(arrays, params, results) -> spec
        factory(arrays, params, results) -> (spec, finish)

    where ``arrays`` are the attached input arrays, ``params`` the
    plan's picklable parameters, and ``results`` maps every declared
    result column to its array (shared columns: the one published
    array; sum columns: this worker's private accumulator).  The
    optional ``finish(ran)`` hook is called once after the worker's
    chunk with the list of ``(outer_node, was_single_node_view)``
    pairs it executed — for factories that materialize shared columns
    from richer local state (e.g. k-NN candidate lists).

    ``apply`` — parent-side write-back: receives the fully reduced
    ``{column name: array}`` dict and absorbs it into the live
    benchmark state, so ``case.result()`` probes read parallel results
    exactly as they read serial ones.

    ``make_probe`` — the independence witness: builds a *small* fresh
    instance of the same computation and returns ``(probe_spec,
    footprint)`` for :func:`check_outer_independence`.  ``None`` means
    unproven, and the parallel backend refuses the spec.

    ``witness_key`` — cache key for the witness verdict (one probe run
    per benchmark family per session); defaults to ``factory``.
    """

    factory: str
    arrays: dict[str, np.ndarray]
    params: dict
    results: tuple[ResultColumn, ...]
    apply: Callable[[dict[str, np.ndarray]], None]
    make_probe: Optional[
        Callable[[], tuple[NestedRecursionSpec, Footprint]]
    ] = None
    witness_key: str = ""

    def __post_init__(self) -> None:
        if ":" not in self.factory:
            raise ScheduleError(
                f"parallel plan factory {self.factory!r} must be a "
                "'package.module:function' dotted path"
            )
        if not self.witness_key:
            self.witness_key = self.factory


@dataclass
class ParallelExecReport:
    """Outcome of one real parallel execution.

    The vocabulary mirrors the simulated
    :class:`~repro.core.parallel.ParallelReport` — ``makespan`` /
    ``parallel_speedup`` — but measured in wall-clock seconds on real
    workers instead of modeled cycles.
    """

    engine: str
    num_workers: int
    spawn_depth: int
    schedule: str
    #: tasks per worker chunk, in worker order
    task_counts: list[int]
    #: busy seconds per worker chunk (attach + rebuild excluded)
    worker_seconds: list[float]
    #: parent-observed wall seconds for the whole run (includes
    #: publication, pool startup, and reduction)
    wall_seconds: float
    #: concrete executor family the tasks ran on (``auto`` is resolved
    #: before it is recorded); single-node-view tasks carry no SoA
    #: kernel, so they run ``soa`` where this says ``compiled``
    task_backend: str

    @property
    def num_tasks(self) -> int:
        """Total spawned tasks."""
        return sum(self.task_counts)

    @property
    def makespan(self) -> float:
        """Slowest worker chunk's busy seconds."""
        return max(self.worker_seconds, default=0.0)

    @property
    def total_seconds(self) -> float:
        """Sum of all workers' busy seconds (serial-equivalent time)."""
        return sum(self.worker_seconds)

    @property
    def parallel_speedup(self) -> float:
        """total busy time / makespan: the load-balance-limited speedup."""
        if self.makespan == 0:
            return float("inf")
        return self.total_seconds / self.makespan


# One witness run per benchmark family per session.
_INDEPENDENCE_CACHE: dict[str, tuple[bool, str]] = {}


def _static_independence_proof(spec) -> Optional[tuple[bool, str]]:
    """Try the TW21x static proof; ``None`` means "use the probe".

    Delegates to :func:`repro.transform.lint.lower.static_independence`
    — the affine-footprint pass over the typed kernel IR.  Only a full
    ``independent`` verdict short-circuits the dynamic witness; a
    ``needs-runtime-check`` or even ``dependent`` verdict falls back
    to the probe, which remains the authoritative oracle (the static
    pass is deliberately conservative, never the other way around).
    Any analyzer failure degrades silently to the dynamic path.
    """
    try:
        from repro.transform.lint.lower import static_independence

        verdict, reason = static_independence(spec)
    except Exception:  # pragma: no cover - defensive: probe still runs
        return None
    if verdict != "independent":
        return None
    return (
        True,
        f"outer recursion proven parallel statically: {reason} "
        "(TW21x affine-footprint proof; no warm-up probe)",
    )


def check_outer_independence(plan: ParallelPlan, spec=None) -> tuple[bool, str]:
    """Prove (or refute) the §3.3 criterion for one plan.

    When the owning ``spec`` is supplied, the static TW21x
    independence pass runs first: an ``independent`` verdict is
    accepted outright, with **zero** warm-up runs.  Otherwise — no
    spec, analyzer failure, or any weaker verdict — the plan's witness
    probe runs serially under a
    :class:`~repro.core.soundness.FootprintRecorder` and is accepted
    iff :func:`~repro.core.soundness.outer_parallel_violations` is
    empty — i.e. every written location is keyed by the outer index,
    the exact property the static analyzer's TW030 diagnostic checks.
    Verdicts are cached per ``witness_key``, so the proof (static or
    dynamic) is discharged once per benchmark family.
    """
    if plan.witness_key in _INDEPENDENCE_CACHE:
        return _INDEPENDENCE_CACHE[plan.witness_key]
    if spec is not None:
        static = _static_independence_proof(spec)
        if static is not None:
            _INDEPENDENCE_CACHE[plan.witness_key] = static
            return static
    if plan.make_probe is None:
        verdict = (
            False,
            "plan carries no independence witness (make_probe is None), "
            "so outer-independence (the TW030 property) is unproven",
        )
    else:
        probe_spec, footprint = plan.make_probe()
        recorder = FootprintRecorder(footprint)
        ORIGINAL.run(probe_spec, instrument=recorder, backend="recursive")
        violations = outer_parallel_violations(recorder)
        if violations:
            verdict = (
                False,
                f"outer-independence refuted on the witness run: "
                f"{len(violations)} location(s) written from multiple "
                f"outer indices, e.g. {violations[0]!r} (the dynamic "
                f"counterpart of TW030)",
            )
        else:
            verdict = (
                True,
                f"outer recursion proven parallel on the witness run "
                f"({recorder.num_work_points} work points, "
                f"{len(recorder.by_location)} locations, all writes keyed "
                f"by the outer index)",
            )
    _INDEPENDENCE_CACHE[plan.witness_key] = verdict
    return verdict


def _resolve_factory(dotted: str) -> Callable:
    module_name, _, attribute = dotted.partition(":")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attribute)
    except AttributeError:
        raise ScheduleError(
            f"parallel worker factory {dotted!r} does not exist"
        ) from None


def _execute_chunk(
    arrays: dict[str, np.ndarray],
    shared_results: dict[str, np.ndarray],
    payload: dict,
) -> dict:
    """Run one worker's task chunk; shared by both engines.

    Rebuilds the spec through the plan's factory, executes each task
    descriptor under the requested schedule on the parent's concrete
    backend, runs the factory's ``finish`` hook, and returns the
    chunk's busy seconds plus its private sum-column accumulators.
    Any failure is re-raised as a picklable
    :class:`~repro.errors.ParallelWorkerError` carrying the original
    traceback.
    """
    try:
        factory = _resolve_factory(payload["factory"])
        sums = {column.name: column.allocate() for column in payload["sum_columns"]}
        results = dict(shared_results)
        results.update(sums)
        built = factory(arrays, payload["params"], results)
        spec, finish = built if isinstance(built, tuple) else (built, None)
        schedule = get_schedule(payload["schedule"])
        backend = payload["task_backend"]
        # task_spec drops a single-node view's SoA kernel, so a view
        # cannot run compiled; the SoA executor runs its scalar work.
        view_backend = "soa" if backend == "compiled" else backend
        preorder = list(spec.outer_root.iter_preorder())
        ran: list[tuple[Any, bool]] = []
        start = time.perf_counter()
        for rank, is_view in payload["descriptors"]:
            node = preorder[rank]
            outer = _single_node_view(node) if is_view else node
            task = Task(outer_root=outer, spec=spec)
            schedule.run(
                task_spec(task),
                backend=view_backend if is_view else backend,
                order=payload["order"],
            )
            ran.append((node, is_view))
        if finish is not None:
            finish(ran)
        seconds = time.perf_counter() - start
        return {"seconds": seconds, "sums": sums}
    except ParallelWorkerError:
        raise
    except BaseException as exc:
        raise ParallelWorkerError(
            f"task chunk failed in worker: {type(exc).__name__}: {exc}",
            traceback.format_exc(),
        ) from None


def _execute_chunk_process(payload: dict) -> dict:
    """Process-engine worker entry: attach shared memory, run, detach.

    Workers close their segments but never unlink (the parent owns the
    segments' lifetime); attached handles are already unregistered
    from the resource tracker by :func:`attach_shared_arrays`, so a
    worker exiting cannot destroy the parent's data.
    """
    arrays, input_segments = attach_shared_arrays(payload["input_handles"])
    shared_results, result_segments = attach_shared_arrays(
        payload["result_handles"]
    )
    try:
        return _execute_chunk(arrays, shared_results, payload)
    finally:
        # NumPy views created by the rebuilt spec may still pin the
        # buffers (close then raises BufferError, which the helper
        # swallows); the mapping is reclaimed at worker exit either
        # way, and only the parent's unlink removes the /dev/shm name.
        close_shared_segments(input_segments, unlink=False)
        close_shared_segments(result_segments, unlink=False)


def _chunk_payload(
    plan: ParallelPlan,
    descriptors: list[tuple[int, bool]],
    schedule_name: str,
    order: str,
    task_backend: str,
    sum_columns: tuple[ResultColumn, ...],
) -> dict:
    return {
        "factory": plan.factory,
        "params": plan.params,
        "descriptors": descriptors,
        "schedule": schedule_name,
        "order": order,
        "task_backend": task_backend,
        "sum_columns": sum_columns,
    }


def _run_process_engine(
    plan: ParallelPlan,
    chunk_descriptors: list[list[tuple[int, bool]]],
    schedule_name: str,
    order: str,
    task_backend: str,
    sum_columns: tuple[ResultColumn, ...],
    shared_columns: tuple[ResultColumn, ...],
    num_workers: int,
) -> tuple[list[Optional[dict]], dict[str, np.ndarray]]:
    """Publish, fan out, reduce — with unconditional segment teardown."""
    segments: list = []
    try:
        input_handles, input_segments = export_shared_arrays(plan.arrays)
        segments.extend(input_segments)
        result_handles, result_segments = export_shared_arrays(
            {column.name: column.allocate() for column in shared_columns}
        )
        segments.extend(result_segments)
        parent_views = {
            handle.name: np.ndarray(
                handle.shape, dtype=np.dtype(handle.dtype), buffer=segment.buf
            )
            for handle, segment in zip(result_handles, result_segments)
        }
        live = sum(1 for descriptors in chunk_descriptors if descriptors)
        outs: list[Optional[dict]] = [None] * len(chunk_descriptors)
        with ProcessPoolExecutor(max_workers=max(1, min(num_workers, live))) as pool:
            futures = {}
            for index, descriptors in enumerate(chunk_descriptors):
                if not descriptors:
                    continue
                payload = _chunk_payload(
                    plan, descriptors, schedule_name, order, task_backend,
                    sum_columns,
                )
                payload["input_handles"] = input_handles
                payload["result_handles"] = result_handles
                futures[index] = pool.submit(_execute_chunk_process, payload)
            for index, future in futures.items():
                outs[index] = future.result()
        shared_out = {
            name: np.array(view, copy=True)
            for name, view in parent_views.items()
        }
        del parent_views
        return outs, shared_out
    finally:
        close_shared_segments(segments, unlink=True)


def _run_thread_engine(
    plan: ParallelPlan,
    chunk_descriptors: list[list[tuple[int, bool]]],
    schedule_name: str,
    order: str,
    task_backend: str,
    sum_columns: tuple[ResultColumn, ...],
    shared_columns: tuple[ResultColumn, ...],
    num_workers: int,
) -> tuple[list[Optional[dict]], dict[str, np.ndarray]]:
    """Same chunk runner, same-process workers, direct array sharing."""
    shared_arrays = {
        column.name: column.allocate() for column in shared_columns
    }
    live = sum(1 for descriptors in chunk_descriptors if descriptors)
    outs: list[Optional[dict]] = [None] * len(chunk_descriptors)
    with ThreadPoolExecutor(max_workers=max(1, min(num_workers, live))) as pool:
        futures = {}
        for index, descriptors in enumerate(chunk_descriptors):
            if not descriptors:
                continue
            payload = _chunk_payload(
                plan, descriptors, schedule_name, order, task_backend,
                sum_columns,
            )
            futures[index] = pool.submit(
                _execute_chunk, plan.arrays, shared_arrays, payload
            )
        for index, future in futures.items():
            outs[index] = future.result()
    return outs, shared_arrays


def run_parallel(
    spec: NestedRecursionSpec,
    schedule: Schedule = ORIGINAL,
    *,
    engine: str = "process",
    max_workers: Optional[int] = None,
    spawn_depth: Optional[int] = None,
    order: str = "preorder",
    task_backend: str = "auto",
    allow_unproven: bool = False,
) -> ParallelExecReport:
    """Execute a spec on real workers via its parallel plan.

    ``spawn_depth=None`` (the default) engages the autotuner:
    :func:`~repro.core.parallel.auto_spawn_depth` grows the depth
    until there are ~4 tasks per worker, capped by LPT cost balance.
    ``schedule`` is applied *inside* each task; ``order`` is the SoA
    linearization tasks use; ``task_backend`` is the executor family
    every task runs on.  ``"auto"`` is decided once, here in the
    parent: the pick :func:`~repro.core.backend_select.choose_backend`
    makes for the same spec without its parallel plan (so the pool
    itself is excluded), whose ``order`` the tasks adopt when ``order``
    was left at ``preorder``.  Workers receive the concrete name and
    never run the selector: each worker factory rebuilds the parent's
    kernel family, so the parent's conformance verdict covers the
    tasks.  A ``compiled`` pick runs single-node-view tasks on ``soa``,
    since a view carries no SoA kernel.

    Refuses to parallelize unless the plan's witness proves
    outer-independence (:func:`check_outer_independence`);
    ``allow_unproven=True`` overrides, for callers who discharged the
    proof themselves.  On any worker failure every shared-memory
    segment is closed and unlinked before the original traceback
    propagates as a :class:`~repro.errors.ParallelWorkerError`.
    """
    if engine not in REAL_ENGINES:
        raise ScheduleError(
            f"unknown parallel engine {engine!r}; known: {list(REAL_ENGINES)} "
            "(the simulated engine lives in run_task_parallel)"
        )
    if task_backend not in TASK_BACKENDS:
        raise ScheduleError(
            f"unknown task backend {task_backend!r}; known: "
            f"{list(TASK_BACKENDS)}"
        )
    plan = spec.parallel_plan
    if plan is None:
        raise ScheduleError(
            f"spec {spec.name!r} carries no parallel plan; the real "
            "engines need shared input arrays and a worker factory "
            "(see repro.core.parallel_exec.ParallelPlan)"
        )
    if not allow_unproven:
        proven, why = check_outer_independence(plan, spec)
        if not proven:
            raise ScheduleError(
                f"parallelism refused for {spec.name!r}: {why}; pass "
                "allow_unproven=True only after discharging "
                "outer-independence yourself"
            )
    if task_backend == "auto":
        from repro.core import backend_select

        pick = backend_select.choose_backend(
            replace(spec, parallel_plan=None), schedule.name
        )
        task_backend = pick.backend
        if order == "preorder":
            order = pick.order
    num_workers = max_workers if max_workers is not None else os.cpu_count() or 1
    if num_workers < 1:
        raise ScheduleError(f"max_workers must be >= 1, got {num_workers}")
    depth = (
        auto_spawn_depth(spec, num_workers)
        if spawn_depth is None
        else spawn_depth
    )
    tasks = spawn_tasks(spec, depth)
    chunks = lpt_assign(tasks, num_workers)
    rank_of = {
        id(node): rank
        for rank, node in enumerate(spec.outer_root.iter_preorder())
    }
    chunk_descriptors = [
        [
            (
                rank_of[id(_real_node(task.outer_root))],
                isinstance(task.outer_root, _SingleNodeView),
            )
            for task in chunk
        ]
        for chunk in chunks
    ]
    sum_columns = tuple(c for c in plan.results if c.mode == "sum")
    shared_columns = tuple(c for c in plan.results if c.mode == "shared")
    engine_runner = (
        _run_process_engine if engine == "process" else _run_thread_engine
    )
    wall_start = time.perf_counter()
    outs, shared_out = engine_runner(
        plan,
        chunk_descriptors,
        schedule.name,
        order,
        task_backend,
        sum_columns,
        shared_columns,
        num_workers,
    )
    wall_seconds = time.perf_counter() - wall_start
    reduced = reduce_sum_columns(
        sum_columns, [out["sums"] for out in outs if out is not None]
    )
    results: dict[str, np.ndarray] = dict(shared_out)
    results.update(reduced)
    plan.apply(results)
    return ParallelExecReport(
        engine=engine,
        num_workers=num_workers,
        spawn_depth=depth,
        schedule=schedule.name,
        task_counts=[len(chunk) for chunk in chunks],
        worker_seconds=[
            out["seconds"] if out is not None else 0.0 for out in outs
        ],
        wall_seconds=wall_seconds,
        task_backend=task_backend,
    )
