"""Wall-clock comparison of the executor backends.

The simulated-machine experiments measure *locality*; this module
measures *real time*: for each benchmark (the Section 6.1 six plus
KDE) and schedule it runs the same spec through every backend —
``recursive`` (the paper-faithful executors), ``soa``
(:mod:`repro.core.soa_exec`, optionally swept across its storage
linearizations), ``compiled``
(:mod:`repro.core.compiled` — refusals on non-``lowerable`` specs are
recorded as null timings with the refusal reason under ``refused``),
and ``auto`` (:mod:`repro.core.backend_select`) — timing each with
:func:`time.perf_counter` and checking that all results are
bit-identical.  The payload also carries a ``host`` key
(``cpu_count``, ``numba``) so the perf-floor gates can self-skip on
undersized hosts.

The driver emits a machine-readable ``BENCH_soa.json`` next to the
rendered table.  Its schema::

    {
      "experiment": "wallclock_backends",
      "scale": 1.0,              # workload scale factor
      "repeats": 3,              # best-of-N timing
      "backends": ["recursive", "soa", "auto"],
      "results": [
        {
          "benchmark": "TJ",
          "schedule": "original",
          "timings": {             # best-of-N wall-clock seconds
            "recursive": 0.65,
            "soa": 0.08,
            "auto": 0.08
          },
          "speedups": {            # recursive_s / backend_s
            "soa": 8.1, "auto": 8.1
          },
          "soa_orders": {          # soa timed per linearization
            "preorder": 0.08, "bfs": 0.09, "veb": 0.08
          },
          "auto_choice": "soa",    # what the selector picked
          "best_backend": "soa",   # fastest single backend
          "auto_vs_best": 1.0,     # best_s / auto_s (>= 0.9 required)
          "results_match": true    # repr-identical results, all backends
        },
        ...
      ]
    }

``auto_vs_best`` is the number the CI perf floor
(:mod:`repro.bench.perf_floor`) guards: ``auto`` must stay within 10%
of the best single backend on every (benchmark, schedule) pair.

Run it from the CLI as ``python -m repro.bench wallclock``; see
``--benchmark``/``--schedule``/``--backend``/``--repeats`` there for
slicing the sweep.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional, Sequence

from repro.bench.reporting import ExperimentReport
from repro.bench.workloads import BenchmarkCase, wallclock_cases
from repro.core import backend_select
from repro.core.backend_select import choose_backend
from repro.core.schedules import Schedule, get_schedule
from repro.errors import ScheduleError
from repro.spaces.soa import LINEARIZATIONS

#: Schedules timed by default: the untransformed baseline plus the
#: paper's headline transformation.
DEFAULT_SCHEDULES = ("original", "twist")

#: Backends timed by default (the ungated families, then the selector).
DEFAULT_BACKENDS = backend_select.SINGLE_BACKENDS + ("auto",)

#: Backends eligible as "best single" references.  ``compiled`` only
#: counts on the benchmarks it accepts (it refuses specs without a
#: TW20x ``lowerable`` verdict; refused entries time as null).
SINGLE_BACKENDS = backend_select.SINGLE_BACKENDS + ("compiled",)


def _host_info() -> dict:
    """Host facts the perf-floor gates need to be host-aware."""
    from repro.transform.lower_codegen import _import_numba

    return {
        "cpu_count": os.cpu_count() or 1,
        "numba": _import_numba() is not None,
    }


def time_backend(
    case: BenchmarkCase,
    schedule: Schedule,
    backend: str,
    repeats: int = 3,
    order: str = "preorder",
) -> tuple[float, object]:
    """Best-of-``repeats`` wall-clock seconds for one configuration.

    Each repeat rebuilds the spec via ``case.make_spec()`` (which
    resets benchmark state), so accumulated results never compound.
    Returns ``(seconds, result)`` where ``result`` is the benchmark's
    result probe after the final repeat.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        spec = case.make_spec()
        start = time.perf_counter()
        schedule.run(spec, backend=backend, order=order)
        best = min(best, time.perf_counter() - start)
    return best, case.result()


def run_wallclock(
    scale: float = 1.0,
    schedule_names: Sequence[str] = DEFAULT_SCHEDULES,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    repeats: int = 3,
    cases: Optional[list[BenchmarkCase]] = None,
    sweep_orders: bool = True,
) -> tuple[ExperimentReport, dict]:
    """Time the backends on the wall-clock benchmark inventory.

    ``sweep_orders`` additionally times the SoA backend under each
    storage linearization (only when ``"soa"`` is among ``backends``).
    Returns ``(report, payload)``: the rendered ASCII table and the
    JSON-serializable payload written to ``BENCH_soa.json``.
    """
    cases = wallclock_cases(scale) if cases is None else cases
    backends = list(backends)
    report = ExperimentReport(
        title="Wall-clock: executor backends",
        columns=["benchmark", "schedule"]
        + [f"{backend} (s)" for backend in backends]
        + ["auto picks", "best", "auto/best", "match"],
    )
    entries = []
    for case in cases:
        for name in schedule_names:
            schedule = get_schedule(name)
            timings: dict[str, Optional[float]] = {}
            results: dict[str, object] = {}
            refused: dict[str, str] = {}
            for backend in backends:
                try:
                    timings[backend], results[backend] = time_backend(
                        case, schedule, backend, repeats
                    )
                except ScheduleError as exc:
                    # The proof-gated compiled backend refuses specs
                    # without a TW20x 'lowerable' verdict; record the
                    # refusal instead of aborting the sweep.
                    timings[backend] = None
                    refused[backend] = str(exc)
            reference = next(iter(results.values()))
            match = all(
                repr(result) == repr(reference)
                for result in results.values()
            )
            entry: dict = {
                "benchmark": case.name,
                "schedule": name,
                "timings": {
                    backend: None if seconds is None else round(seconds, 6)
                    for backend, seconds in timings.items()
                },
                "results_match": match,
            }
            if refused:
                entry["refused"] = refused
            recursive_s = timings.get("recursive")
            if recursive_s is not None:
                entry["speedups"] = {
                    backend: round(recursive_s / timings[backend], 3)
                    for backend in backends
                    if backend != "recursive"
                    and timings[backend] is not None
                    and timings[backend] > 0
                }
            if sweep_orders and "soa" in backends:
                entry["soa_orders"] = {
                    order: round(
                        time_backend(
                            case, schedule, "soa", repeats, order=order
                        )[0],
                        6,
                    )
                    for order in LINEARIZATIONS
                }
            if (
                sweep_orders
                and "compiled" in backends
                and "compiled" not in refused
            ):
                entry["compiled_orders"] = {
                    order: round(
                        time_backend(
                            case, schedule, "compiled", repeats, order=order
                        )[0],
                        6,
                    )
                    for order in LINEARIZATIONS
                }
            singles = [
                b
                for b in backends
                if b in SINGLE_BACKENDS and timings[b] is not None
            ]
            best_backend = min(singles, key=timings.get) if singles else None
            auto_choice = best_note = ""
            auto_vs_best = None
            if best_backend is not None:
                entry["best_backend"] = best_backend
                best_note = best_backend
            if "auto" in backends:
                choice = choose_backend(case.make_spec(), name)
                auto_choice = choice.backend
                entry["auto_choice"] = choice.backend
                entry["auto_reason"] = choice.reason
                if best_backend is not None and timings["auto"] > 0:
                    auto_vs_best = round(
                        timings[best_backend] / timings["auto"], 3
                    )
                    entry["auto_vs_best"] = auto_vs_best
            report.add_row(
                case.name,
                name,
                *(
                    "-" if timings[backend] is None else timings[backend]
                    for backend in backends
                ),
                auto_choice,
                best_note,
                "" if auto_vs_best is None else f"{auto_vs_best:.2f}",
                "yes" if match else "NO",
            )
            entries.append(entry)
    report.add_note(
        f"best-of-{repeats} wall-clock timings at scale {scale:g}; "
        "'match' checks bit-identical benchmark results across backends; "
        "'auto/best' is best-single-backend time over auto time "
        "(1.0 = auto matched the best backend)"
    )
    payload = {
        "experiment": "wallclock_backends",
        "scale": scale,
        "repeats": repeats,
        "backends": backends,
        "host": _host_info(),
        "results": entries,
    }
    return report, payload


def write_bench_json(payload: dict, path: str = "BENCH_soa.json") -> str:
    """Write the wall-clock payload as indented JSON; returns the path."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path
