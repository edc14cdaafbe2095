"""The paper's contribution: schedules for nested recursive iteration spaces.

* :mod:`repro.core.spec` — the Figure 2 nested recursion template as a
  declarative :class:`NestedRecursionSpec`;
* :mod:`repro.core.executors` — the original schedule;
* :mod:`repro.core.interchange` — recursion interchange (Figure 3);
* :mod:`repro.core.twisting` — recursion twisting (Figure 4a), with
  the Section 7.1 cutoff variant;
* :mod:`repro.core.truncation` — the Section 4 irregular-truncation
  machinery (Figure 6(b) flags, Section 4.3 counters, Section 4.2
  subtree truncation);
* :mod:`repro.core.instruments` — probes for ops, accesses, and work;
* :mod:`repro.core.soundness` — dependence-order verification and the
  Section 3.3 outer-parallel criterion;
* :mod:`repro.core.soa_exec` — explicit-stack executors over packed
  structure-of-arrays tree views (:mod:`repro.spaces.soa`) for every
  schedule, bit-identical to the recursive executors (and the route
  for spaces too deep to recurse), with an inline dispatch mode for
  stateful-truncation specs;
* :mod:`repro.core.batched` — the node-block work dispatcher the SoA
  executors use for specs without a SoA-native kernel;
* :mod:`repro.core.backend_select` — the ``backend="auto"``
  calibration probe and decision table;
* :mod:`repro.core.schedules` — the named schedule registry used by
  benches and examples.
"""

from repro.core.backend_select import (
    BackendChoice,
    choose_backend,
    probe_features,
    resolve_backend,
)
from repro.core.batched import DEFAULT_BATCH_SIZE, BatchDispatcher
from repro.core.cutoff import (
    auto_cutoff_schedule,
    cutoff_for_machine,
    estimate_cutoff,
)
from repro.core.executors import run_original
from repro.core.instruments import (
    NULL_INSTRUMENT,
    AccessTraceRecorder,
    CacheProbe,
    Instrument,
    MultiInstrument,
    OpCounter,
    ReuseDistanceProbe,
    WorkCallback,
    WorkRecorder,
    combine,
)
from repro.core.interchange import run_interchanged
from repro.core.multilevel import (
    MultiLevelInstrument,
    MultiLevelSpec,
    OpCounterN,
    PointRecorder,
    cross_product_size,
    run_original_n,
    run_twisted_n,
)
from repro.core.parallel import (
    ParallelReport,
    Task,
    WorkerTrace,
    run_task_parallel,
    spawn_tasks,
    task_spec,
)
from repro.core.parallel_exec import (
    ParallelExecReport,
    ParallelPlan,
    check_outer_independence,
    run_parallel,
)
from repro.core.recursion import (
    MAX_SAFE_RECURSION_LIMIT,
    exceeds_safe_depth,
    recursion_guard,
    required_limit,
)
from repro.core.schedules import (
    BACKENDS,
    BY_NAME,
    INTERCHANGE,
    INTERCHANGE_SUBTREE,
    ORIGINAL,
    TWIST,
    TWIST_COUNTERS,
    TWIST_NO_SUBTREE,
    Schedule,
    get_schedule,
    twist_with_cutoff,
)
from repro.core.soa_exec import (
    PositionDispatcher,
    run_interchanged_soa,
    run_original_soa,
    run_twisted_soa,
)
from repro.core.soundness import (
    FootprintRecorder,
    SoundnessReport,
    canonical_form,
    check_transformation,
    compare_recordings,
    is_outer_parallel,
    outer_parallel_violations,
)
from repro.core.spec import (
    INNER_TREE,
    OUTER_TREE,
    NestedRecursionSpec,
)
from repro.core.truncation import (
    CounterTruncation,
    FlagTruncation,
    NoTruncation,
    TruncationPolicy,
    make_policy,
)
from repro.core.twisting import run_twisted

__all__ = [
    "AccessTraceRecorder",
    "BACKENDS",
    "BY_NAME",
    "BackendChoice",
    "BatchDispatcher",
    "CacheProbe",
    "DEFAULT_BATCH_SIZE",
    "MAX_SAFE_RECURSION_LIMIT",
    "CounterTruncation",
    "FlagTruncation",
    "FootprintRecorder",
    "INNER_TREE",
    "INTERCHANGE",
    "INTERCHANGE_SUBTREE",
    "Instrument",
    "MultiInstrument",
    "MultiLevelInstrument",
    "MultiLevelSpec",
    "NULL_INSTRUMENT",
    "NestedRecursionSpec",
    "OpCounterN",
    "PointRecorder",
    "NoTruncation",
    "ORIGINAL",
    "OUTER_TREE",
    "OpCounter",
    "ParallelExecReport",
    "ParallelPlan",
    "ParallelReport",
    "PositionDispatcher",
    "ReuseDistanceProbe",
    "Schedule",
    "Task",
    "WorkerTrace",
    "SoundnessReport",
    "TWIST",
    "TWIST_COUNTERS",
    "TWIST_NO_SUBTREE",
    "TruncationPolicy",
    "WorkCallback",
    "WorkRecorder",
    "auto_cutoff_schedule",
    "canonical_form",
    "check_outer_independence",
    "choose_backend",
    "cutoff_for_machine",
    "estimate_cutoff",
    "check_transformation",
    "combine",
    "probe_features",
    "resolve_backend",
    "compare_recordings",
    "cross_product_size",
    "exceeds_safe_depth",
    "get_schedule",
    "is_outer_parallel",
    "outer_parallel_violations",
    "make_policy",
    "recursion_guard",
    "required_limit",
    "run_interchanged",
    "run_interchanged_soa",
    "run_original",
    "run_original_n",
    "run_original_soa",
    "run_parallel",
    "run_twisted_soa",
    "run_task_parallel",
    "run_twisted_n",
    "run_twisted",
    "spawn_tasks",
    "task_spec",
    "twist_with_cutoff",
]
