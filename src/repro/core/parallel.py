"""Task-parallel nested recursion (Section 7.3), simulated.

"Adding parallelism to nested recursion is completely straightforward.
Recall from Section 3.3 that a sufficient condition for the soundness
of recursion twisting is if each outer recursive step is independent of
the rest.  This independence means that the outer recursions can be
executed in a task-parallel manner ... At any point in the process,
recursion twisting can be applied to a spawned task to improve its
locality.  Note, however, that once recursion twisting is applied, it
is no longer sound to treat outer recursions as independent of one
another ... so twisting should only be applied once enough parallelism
has been generated."

This module realizes that recipe on the simulated machine:

1. :func:`spawn_tasks` splits the outer recursion at a *spawn depth*
   into independent tasks (one per outer subtree), exactly the Cilk
   ``spawn`` decomposition the paper sketches — and, per the quote,
   twisting happens only *inside* tasks, never across them;
2. :func:`run_task_parallel` assigns tasks to simulated workers (greedy
   longest-processing-time on an O(size-product) cost estimate), runs
   each task under the chosen schedule on the worker's own private
   cache hierarchy, and reports the makespan.

Because the workers' caches are private, each task's locality is
whatever its schedule earns — running the twisted schedule per task
composes the Section 3 locality benefits with outer parallelism, which
is the point of Section 7.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.instruments import Instrument, NULL_INSTRUMENT, combine
from repro.core.schedules import ORIGINAL, Schedule
from repro.core.spec import NestedRecursionSpec, _never
from repro.errors import ScheduleError
from repro.spaces.node import IndexNode, tree_depth

#: Engines accepted by :func:`run_task_parallel`.
ENGINES = ("simulated", "process", "thread")


@dataclass
class Task:
    """One spawned unit: an outer subtree crossed with the inner tree."""

    #: root of the outer subtree this task owns
    outer_root: IndexNode
    #: the spec the task executes (shares work/state with its siblings)
    spec: NestedRecursionSpec
    #: memoized scheduling weight (computed on first use)
    _cost: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    @property
    def cost_estimate(self) -> int:
        """Scheduling weight for LPT assignment.

        Without further information this is the task's iteration-space
        upper bound, ``|outer subtree| * |inner tree|``.  When the spec
        declares ``outer_launches_work``, only outer positions that can
        launch a real inner traversal are charged the inner-tree cost;
        the rest cost one visit each.  This is what keeps dual-tree
        estimates honest: a single-node task over an *internal* query
        node executes almost nothing, and charging it a full inner
        traversal used to skew LPT toward placing real work badly.
        """
        if self._cost is None:
            inner_size = self.spec.inner_root.size
            launches = self.spec.outer_launches_work
            if launches is None:
                self._cost = self.outer_root.size * inner_size
            else:
                launching = sum(
                    1
                    for node in self.outer_root.iter_preorder()
                    if launches(_real_node(node))
                )
                self._cost = launching * inner_size + self.outer_root.size
        return self._cost


def spawn_tasks(spec: NestedRecursionSpec, spawn_depth: int) -> list[Task]:
    """Split the outer recursion into independent tasks.

    Descends ``spawn_depth`` levels of the outer tree; every node *at*
    that depth roots one task's subtree, and every node *above* it
    (which the template would have visited on the way down) becomes a
    single-node task of its own, so the union of task iteration spaces
    is exactly the original space.

    Only sound when the outer recursion is parallel — the caller can
    verify that with :func:`repro.core.soundness.is_outer_parallel`.

    ``spawn_depth`` must lie in ``0..tree_depth(outer) - 1``: depth 0
    is the whole space as one task, the maximum is one task per node.
    Depths beyond the deepest level used to be accepted silently and
    only re-derived the maximum decomposition (every task degenerate);
    now they raise with the valid range spelled out.
    """
    max_depth = tree_depth(spec.outer_root) - 1
    if spawn_depth < 0 or spawn_depth > max_depth:
        raise ScheduleError(
            f"spawn_depth {spawn_depth} is out of range for the outer tree: "
            f"valid depths are 0..{max_depth} (0 = one task for the whole "
            f"space, {max_depth} = one task per outer node); deeper spawns "
            "cannot create more tasks"
        )
    tasks: list[Task] = []

    def descend(node: IndexNode, depth: int) -> None:
        if depth == spawn_depth or node.is_leaf:
            tasks.append(Task(outer_root=node, spec=spec))
            return
        # The node itself still owes one inner traversal: emit it as a
        # single-node task (its subtree minus its children's subtrees).
        tasks.append(Task(outer_root=_single_node_view(node), spec=spec))
        for child in node.children:
            descend(child, depth + 1)

    descend(spec.outer_root, 0)
    return tasks


class _SingleNodeView(IndexNode):
    """A childless facade over one outer node.

    Lets a spawned parent node run its own inner traversal without
    re-running its children's (they have their own tasks).  Mirrors how
    a Cilk version would execute the node's body before spawning the
    child calls.

    The facade controls *traversal structure only*.  Spec callables
    that inspect the node's identity (``children``, ``size``) to make
    semantic decisions — dual-tree truncation asking "is this query
    node a leaf?" — must see the real node, or an internal node
    masquerades as a leaf and executes iterations the sequential
    schedule truncates.  :func:`_task_spec` therefore rewires those
    predicates through :func:`_real_node`; data attributes (payloads,
    bounds, point ids) delegate to the base node transparently.
    """

    __slots__ = ("base",)

    def __init__(self, base: IndexNode) -> None:
        super().__init__()
        self.base = base
        self.size = 1
        self.number = base.number
        self.children = ()
        # Set, so the delegation below cannot hand soa_view the base
        # node's packed whole-subtree views.
        self._soa_views = None

    def __getattr__(self, name):  # pragma: no cover - delegation shim
        return getattr(self.base, name)


def _single_node_view(node: IndexNode) -> IndexNode:
    return _SingleNodeView(node)


def _real_node(node: IndexNode) -> IndexNode:
    """The underlying tree node behind a (possible) single-node view."""
    return node.base if isinstance(node, _SingleNodeView) else node


def lpt_assign(tasks: Sequence[Task], num_workers: int) -> list[list[Task]]:
    """Greedy longest-processing-time placement onto workers.

    Largest estimated cost first, each to the least-loaded worker
    (lowest index on ties).  This is the single placement policy shared
    by the simulated runtime and the real engines in
    :mod:`repro.core.parallel_exec`, so a measured run executes exactly
    the task layout the simulation modeled.
    """
    if num_workers < 1:
        raise ScheduleError(f"num_workers must be >= 1, got {num_workers}")
    chunks: list[list[Task]] = [[] for _ in range(num_workers)]
    loads = [0 for _ in range(num_workers)]
    for task in sorted(tasks, key=lambda t: t.cost_estimate, reverse=True):
        target = loads.index(min(loads))
        chunks[target].append(task)
        loads[target] += task.cost_estimate
    return chunks


def lpt_imbalance(tasks: Sequence[Task], num_workers: int) -> float:
    """Makespan over ideal (total/workers) for the LPT placement.

    1.0 is a perfect balance; the spawn-depth autotuner stops deepening
    once this is close enough to 1.
    """
    loads = [
        sum(task.cost_estimate for task in chunk)
        for chunk in lpt_assign(tasks, num_workers)
    ]
    total = sum(loads)
    if total == 0:
        return 1.0
    ideal = total / num_workers
    return max(loads) / ideal


def auto_spawn_depth(
    spec: NestedRecursionSpec,
    num_workers: int,
    target_tasks_per_worker: float = 4.0,
    balance_slack: float = 1.10,
) -> int:
    """Pick a spawn depth for a worker count (the §7.3 tuning knob).

    Grows the depth until there are at least ``target_tasks_per_worker
    * num_workers`` tasks (enough slack for LPT to smooth task-cost
    variance), then keeps growing only while the LPT imbalance still
    exceeds ``balance_slack`` — deeper spawns past a balanced
    decomposition just add per-task overhead.  Bounded by the outer
    tree's valid depth range.
    """
    if num_workers < 1:
        raise ScheduleError(f"num_workers must be >= 1, got {num_workers}")
    max_depth = tree_depth(spec.outer_root) - 1
    if max_depth <= 0:
        return 0
    depth = 1
    for depth in range(1, max_depth + 1):
        tasks = spawn_tasks(spec, depth)
        if len(tasks) < target_tasks_per_worker * num_workers:
            continue
        if lpt_imbalance(tasks, num_workers) <= balance_slack:
            break
    return depth


@dataclass
class WorkerTrace:
    """What one simulated worker executed."""

    worker_id: int
    tasks: list[Task] = field(default_factory=list)
    cycles: float = 0.0


@dataclass
class ParallelReport:
    """Outcome of a simulated task-parallel execution."""

    workers: list[WorkerTrace]
    #: sum of all workers' cycles (the sequential-equivalent total)
    total_cycles: float
    #: slowest worker's cycles — the modeled parallel run time
    makespan: float

    @property
    def parallel_speedup(self) -> float:
        """total work / makespan: the load-balance-limited speedup."""
        if self.makespan == 0:
            return float("inf")
        return self.total_cycles / self.makespan


TaskRunner = Callable[[Task, Instrument], float]


def run_task_parallel(
    spec: NestedRecursionSpec,
    num_workers: int,
    spawn_depth: Optional[int] = 3,
    schedule: Schedule = ORIGINAL,
    task_cycles: Optional[TaskRunner] = None,
    instruments: Optional[Sequence[Instrument]] = None,
    backend: str = "recursive",
    engine: str = "simulated",
    max_workers: Optional[int] = None,
):
    """Execute a spec as spawn-depth-bounded parallel tasks.

    ``engine`` picks the runtime:

    * ``"simulated"`` (default) — the historical behavior: tasks are
      assigned to pretend workers and executed serially, one at a time,
      and the returned :class:`ParallelReport` carries modeled cycles
      and the LPT makespan.  Unchanged semantics, bit-for-bit.
    * ``"process"`` / ``"thread"`` — the real multi-core runtime of
      :mod:`repro.core.parallel_exec`: the same spawn decomposition and
      LPT placement, executed on hardware workers.  Requires the spec
      to carry a :class:`~repro.core.parallel_exec.ParallelPlan`;
      returns a :class:`~repro.core.parallel_exec.ParallelExecReport`
      (same ``makespan``/``parallel_speedup`` vocabulary, measured in
      wall seconds).  ``task_cycles``/``instruments`` are
      simulated-only and rejected here.

    ``spawn_depth=None`` engages the autotuner
    (:func:`auto_spawn_depth`) on every engine.  ``max_workers`` caps
    the real engines' pool size (defaults to ``num_workers``).

    Tasks are assigned greedily (largest estimated cost first, to the
    least loaded worker) and, under the simulated engine, executed in
    worker order — which is a *valid* serialization because spawning
    requires outer-parallelism.  ``task_cycles`` measures one task's
    cost; the default counts executed work points (callers wanting
    cache-accurate costs pass a closure over
    :func:`repro.bench.runner`-style probes).  ``instruments[w]``
    observes worker ``w``'s execution.  ``backend`` selects each task's
    executor; task specs always carry per-task isolated truncation
    state, so any backend may simulate sibling tasks concurrently.
    """
    if engine not in ENGINES:
        raise ScheduleError(
            f"unknown engine {engine!r}; known: {list(ENGINES)}"
        )
    if num_workers < 1:
        raise ScheduleError(f"num_workers must be >= 1, got {num_workers}")
    if engine != "simulated":
        if task_cycles is not None or instruments is not None:
            raise ScheduleError(
                "task_cycles/instruments only apply to the simulated "
                "engine; the real engines measure wall-clock time and "
                "cannot ship instruments across workers"
            )
        from repro.core.parallel_exec import run_parallel

        return run_parallel(
            spec,
            schedule=schedule,
            engine=engine,
            max_workers=max_workers if max_workers is not None else num_workers,
            spawn_depth=spawn_depth,
            task_backend=backend,
        )
    if instruments is not None and len(instruments) != num_workers:
        raise ScheduleError("need exactly one instrument per worker")

    if spawn_depth is None:
        spawn_depth = auto_spawn_depth(spec, num_workers)
    tasks = spawn_tasks(spec, spawn_depth)
    # Greedy LPT assignment on the static cost estimate.
    workers = [WorkerTrace(worker_id=w) for w in range(num_workers)]
    for worker, chunk in zip(workers, lpt_assign(tasks, num_workers)):
        worker.tasks.extend(chunk)

    def default_task_cycles(task: Task, instrument: Instrument) -> float:
        from repro.core.instruments import OpCounter

        ops = OpCounter()
        task_spec = _task_spec(task)
        schedule.run(task_spec, instrument=combine(ops, instrument), backend=backend)
        return float(ops.work_points)

    measure = task_cycles or default_task_cycles
    for worker in workers:
        probe = instruments[worker.worker_id] if instruments else NULL_INSTRUMENT
        for task in worker.tasks:
            worker.cycles += measure(task, probe)

    total = sum(worker.cycles for worker in workers)
    makespan = max((worker.cycles for worker in workers), default=0.0)
    return ParallelReport(workers=workers, total_cycles=total, makespan=makespan)


def _task_spec(task: Task) -> NestedRecursionSpec:
    """The task's restriction of the spec to its outer subtree.

    Carries every execution-relevant field of the parent spec, with two
    adjustments:

    * ``isolated_truncation`` is forced on, so each task's Section 4
      flag/counter state lives in its own policy-local storage instead
      of on the shared trees — concurrently simulated sibling tasks can
      no longer leak truncation state to one another;
    * when the task's outer root is a single-node view, predicates that
      make decisions from outer-node *identity* (``truncate_outer``,
      ``truncate_inner2`` and its block form, ``outer_launches_work``)
      are rewired to see the real node, so an internal node never
      masquerades as a leaf (see :class:`_SingleNodeView`).
    """
    spec = task.spec
    truncate_outer = spec.truncate_outer
    truncate_inner2 = spec.truncate_inner2
    truncate_inner2_batch = spec.truncate_inner2_batch
    outer_launches_work = spec.outer_launches_work
    work_batch_soa = spec.work_batch_soa
    if isinstance(task.outer_root, _SingleNodeView):
        # A view node is not the payload-bearing node type the SoA
        # packer infers columns from, so the SoA-native kernel path is
        # unavailable for single-node tasks; the SoA executor falls
        # back to scalar work, which is fine — a view task runs exactly
        # one inner traversal.
        work_batch_soa = None
        if truncate_outer is not _never:
            base_truncate_outer = truncate_outer
            truncate_outer = lambda o: base_truncate_outer(_real_node(o))  # noqa: E731
        if truncate_inner2 is not None:
            base_truncate_inner2 = truncate_inner2
            truncate_inner2 = lambda o, i: base_truncate_inner2(  # noqa: E731
                _real_node(o), i
            )
        if truncate_inner2_batch is not None:
            base_t2_batch = truncate_inner2_batch
            truncate_inner2_batch = lambda o: base_t2_batch(_real_node(o))  # noqa: E731
        if outer_launches_work is not None:
            base_launches = outer_launches_work
            outer_launches_work = lambda o: base_launches(_real_node(o))  # noqa: E731
    return NestedRecursionSpec(
        outer_root=task.outer_root,
        inner_root=spec.inner_root,
        work=spec.work,
        truncate_outer=truncate_outer,
        truncate_inner1=spec.truncate_inner1,
        truncate_inner2=truncate_inner2,
        truncate_inner2_batch=truncate_inner2_batch,
        work_batch=spec.work_batch,
        work_batch_soa=work_batch_soa,
        truncation_observes_work=spec.truncation_observes_work,
        isolated_truncation=True,
        outer_launches_work=outer_launches_work,
        name=f"{spec.name}-task",
    )


def task_spec(task: Task) -> NestedRecursionSpec:
    """Public accessor for a task's restricted spec."""
    return _task_spec(task)
