"""Named schedule registry.

The bench harness and the examples refer to schedules by name
("original", "interchange", "twist", "twist(cutoff=64)", ...).  This
module gives each transformation a uniform call signature —
``schedule.run(spec, instrument)`` — and a canonical name, so the
experiment drivers can sweep configurations declaratively.

Every schedule carries interchangeable backends:

* ``recursive`` — the faithful recursive executors, structured like
  the paper's listings;
* ``batched`` — the explicit-stack executors of
  :mod:`repro.core.batched`, which defer work into vectorized blocks
  while emitting the exact same instrumentation event sequence;
* ``soa`` — the index-based executors of :mod:`repro.core.soa_exec`,
  which traverse packed structure-of-arrays views
  (:mod:`repro.spaces.soa`) instead of linked nodes;
* ``compiled`` — the proof-gated fused executors of
  :mod:`repro.core.compiled`, which replay the SoA emission order in
  position blocks (streamed closed forms, a cached narrow twist
  sequence) through one fused (optionally numba-jitted) kernel — only
  for specs the TW2xx pass certifies ``lowerable``;
* ``parallel`` — the real multi-worker runtime of
  :mod:`repro.core.parallel_exec`, which spawns independent outer
  subtrees as tasks (the Section 7.3 decomposition) across a process
  or thread pool over shared-memory SoA columns;
* ``auto`` — :func:`repro.core.backend_select.choose_backend` probes
  the spec and picks one per (spec, schedule).

Pick one per run via ``schedule.run(spec, instrument, backend=...)``.
All backends produce identical results; the single-process backends
also produce identical instrumentation event streams (``parallel``
rejects instruments — events interleave across workers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.batched import (
    run_interchanged_batched,
    run_original_batched,
    run_twisted_batched,
)
from repro.core.compiled import (
    run_interchanged_compiled,
    run_original_compiled,
    run_twisted_compiled,
)
from repro.core.executors import run_original
from repro.core.instruments import Instrument
from repro.core.interchange import run_interchanged
from repro.core.soa_exec import (
    run_interchanged_soa,
    run_original_soa,
    run_twisted_soa,
)
from repro.core.spec import NestedRecursionSpec
from repro.core.twisting import run_twisted
from repro.errors import ScheduleError

Runner = Callable[..., None]

#: Backend names accepted by :meth:`Schedule.run`.
BACKENDS = (
    "recursive",
    "batched",
    "soa",
    "compiled",
    "parallel",
    "auto",
    "sanitize",
)


@dataclass(frozen=True)
class Schedule:
    """A named, fully configured schedule transformation."""

    name: str
    _runner: Runner
    _batched_runner: Runner
    _soa_runner: Runner
    _compiled_runner: Runner

    def run(
        self,
        spec: NestedRecursionSpec,
        instrument: Optional[Instrument] = None,
        backend: str = "recursive",
        order: str = "preorder",
        spec_factory: Optional[Callable[[], NestedRecursionSpec]] = None,
    ) -> None:
        """Execute ``spec`` under this schedule.

        ``backend`` selects the recursive executors (default), the
        batched explicit-stack ones, the SoA index-based ones,
        ``"compiled"`` (the proof-gated fused executors of
        :mod:`repro.core.compiled` — requires a TW20x ``lowerable``
        verdict and delegates instrumented runs to the SoA backend),
        ``"parallel"`` (the multi-worker runtime of
        :mod:`repro.core.parallel_exec` — requires the spec to carry a
        ``parallel_plan`` and a proven outer-independence witness, and
        rejects ``instrument``), ``"auto"`` (probe the spec, pick one
        — refusing any backend the conformance analyzer proved
        unsafe), or ``"sanitize"`` (shadow-execute the auto-chosen
        backend against the recursive one, raising
        :class:`~repro.core.sanitize.SanitizeDivergence` at the first
        observable difference); all produce identical results and the
        single-process backends identical instrumentation events.
        ``order`` is the storage linearization used by the SoA backend
        and by ``parallel`` task kernels
        (``preorder``/``bfs``/``veb``); other backends ignore it.
        Under ``"auto"`` an unpinned ``order`` (left at ``preorder``)
        adopts the selector's recommendation.

        ``spec_factory`` is only consulted by ``"sanitize"``, whose
        phases each need a fresh spec; specs whose truncation observes
        work *require* it (re-running them on stale accumulator state
        diverges for reasons unrelated to the backend).
        """
        if backend == "sanitize":
            from repro.core.sanitize import run_sanitized

            if spec_factory is None:
                if spec.truncation_observes_work:
                    raise ScheduleError(
                        "backend='sanitize' needs spec_factory for a "
                        "spec whose truncation observes work: each "
                        "shadow phase must start from fresh state"
                    )
                spec_factory = lambda: spec  # noqa: E731
            run_sanitized(
                spec_factory,
                self,
                backend="auto",
                order=order,
                instrument=instrument,
            )
            return
        if backend == "auto":
            from repro.core.backend_select import choose_backend

            choice = choose_backend(spec, self.name)
            backend = choice.backend
            if order == "preorder":
                order = choice.order
        if backend == "parallel":
            if instrument is not None:
                raise ScheduleError(
                    "backend='parallel' cannot carry an instrument: "
                    "worker event streams interleave nondeterministically; "
                    "instrument a single-process backend instead"
                )
            from repro.core.parallel_exec import run_parallel

            run_parallel(spec, schedule=self, order=order)
            return
        if backend == "recursive":
            self._runner(spec, instrument=instrument)
        elif backend == "batched":
            self._batched_runner(spec, instrument=instrument)
        elif backend == "soa":
            self._soa_runner(spec, instrument=instrument, order=order)
        elif backend == "compiled":
            self._compiled_runner(spec, instrument=instrument, order=order)
        else:
            raise ScheduleError(
                f"unknown backend {backend!r}; known: {list(BACKENDS)}"
            )


#: The untransformed Figure 2 schedule.
ORIGINAL = Schedule(
    "original",
    run_original,
    run_original_batched,
    run_original_soa,
    run_original_compiled,
)

#: Plain recursion interchange (Figure 3 + Section 4 flags).
INTERCHANGE = Schedule(
    "interchange",
    run_interchanged,
    run_interchanged_batched,
    run_interchanged_soa,
    run_interchanged_compiled,
)

#: Interchange with the Section 4.2 subtree-truncation optimization.
INTERCHANGE_SUBTREE = Schedule(
    "interchange+subtree",
    lambda spec, instrument=None: run_interchanged(
        spec, instrument=instrument, subtree_truncation=True
    ),
    lambda spec, instrument=None: run_interchanged_batched(
        spec, instrument=instrument, subtree_truncation=True
    ),
    lambda spec, instrument=None, order="preorder": run_interchanged_soa(
        spec, instrument=instrument, subtree_truncation=True, order=order
    ),
    lambda spec, instrument=None, order="preorder": run_interchanged_compiled(
        spec, instrument=instrument, subtree_truncation=True, order=order
    ),
)

#: Parameterless recursion twisting, the paper's evaluated configuration
#: (flags + subtree truncation).
TWIST = Schedule(
    "twist",
    run_twisted,
    run_twisted_batched,
    run_twisted_soa,
    run_twisted_compiled,
)

#: Twisting with the Section 4.3 counter optimization.
TWIST_COUNTERS = Schedule(
    "twist+counters",
    lambda spec, instrument=None: run_twisted(
        spec, instrument=instrument, use_counters=True
    ),
    lambda spec, instrument=None: run_twisted_batched(
        spec, instrument=instrument, use_counters=True
    ),
    lambda spec, instrument=None, order="preorder": run_twisted_soa(
        spec, instrument=instrument, use_counters=True, order=order
    ),
    lambda spec, instrument=None, order="preorder": run_twisted_compiled(
        spec, instrument=instrument, use_counters=True, order=order
    ),
)

#: Twisting without subtree truncation (for the Section 4.2 ablation).
TWIST_NO_SUBTREE = Schedule(
    "twist-subtree",
    lambda spec, instrument=None: run_twisted(
        spec, instrument=instrument, subtree_truncation=False
    ),
    lambda spec, instrument=None: run_twisted_batched(
        spec, instrument=instrument, subtree_truncation=False
    ),
    lambda spec, instrument=None, order="preorder": run_twisted_soa(
        spec, instrument=instrument, subtree_truncation=False, order=order
    ),
    lambda spec, instrument=None, order="preorder": run_twisted_compiled(
        spec, instrument=instrument, subtree_truncation=False, order=order
    ),
)


def twist_with_cutoff(cutoff: int) -> Schedule:
    """The Section 7.1 cutoff variant, as a named schedule."""
    if cutoff < 0:
        raise ScheduleError(f"cutoff must be non-negative, got {cutoff}")
    return Schedule(
        f"twist(cutoff={cutoff})",
        lambda spec, instrument=None: run_twisted(
            spec, instrument=instrument, cutoff=cutoff
        ),
        lambda spec, instrument=None: run_twisted_batched(
            spec, instrument=instrument, cutoff=cutoff
        ),
        lambda spec, instrument=None, order="preorder": run_twisted_soa(
            spec, instrument=instrument, cutoff=cutoff, order=order
        ),
        lambda spec, instrument=None, order="preorder": run_twisted_compiled(
            spec, instrument=instrument, cutoff=cutoff, order=order
        ),
    )


#: Schedules by bare name, for CLI-ish lookups in examples and benches.
BY_NAME = {
    schedule.name: schedule
    for schedule in (
        ORIGINAL,
        INTERCHANGE,
        INTERCHANGE_SUBTREE,
        TWIST,
        TWIST_COUNTERS,
        TWIST_NO_SUBTREE,
    )
}


def get_schedule(name: str) -> Schedule:
    """Look up a schedule by name, supporting ``twist(cutoff=N)``."""
    if name in BY_NAME:
        return BY_NAME[name]
    if name.startswith("twist(cutoff=") and name.endswith(")"):
        return twist_with_cutoff(int(name[len("twist(cutoff=") : -1]))
    raise ScheduleError(
        f"unknown schedule {name!r}; known: {sorted(BY_NAME)} "
        f"or 'twist(cutoff=N)'"
    )
