"""CI gate: the static cost model must track measured reality.

The TW30x locality analyzer and the ``choose_backend`` decision table
predict winners before anything runs.  Those predictions are only
worth gating on if they keep agreeing with the clocks, so this module
replays every checked-in ``BENCH_*.json`` payload and compares the
*predicted* winner against the *measured* one, row by row:

* **Wall-clock payloads** (``BENCH_soa.json``, ``BENCH_compiled.json``
  — entries carry a ``timings`` dict): the spec is rebuilt at the
  payload's recorded scale, ``choose_backend`` picks a backend, and
  the pick is mapped into the row's actually-measured backends (a
  ``compiled`` prediction against a sweep that never timed compiled
  falls back to ``soa``, the backend it fuses).  The row validates if
  the predicted backend's time is within :data:`DIRECTION_FACTOR` of
  the row's best single backend — direction, not magnitude: the model
  claims "this backend is the right family", not "exactly this fast".

* **Parallel payloads** (entries carry ``runs``): the model predicts
  a parallel win exactly when the recorded host had at least two
  cores; the measurement says a win happened when any run's
  ``speedup_vs_serial_soa`` clears 1.0.  One prediction per payload —
  the per-row task-spawn economics are the parallel floor's job.

* **Serve payloads** (no per-backend rows) are skipped with a note:
  admission batching has no static prediction to validate.

The gate fails when the fraction of mispredicted rows exceeds
:data:`DEFAULT_TOLERANCE` — a calibrated-but-forgiving bar: a single
drifted row on a noisy runner must not block CI, a systematically
wrong model must.

Run it as ``python -m repro.bench cost-validate [--json PATH ...]
[--scale-cap S] [--tolerance F]``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.backend_select import SINGLE_BACKENDS

#: Predicted backend's time may lag the row's best by this factor and
#: still count as directionally correct.  Calibrated against the
#: checked-in payloads: the worst honest near-miss was PC/original at
#: 1.41x while the selector still picked the deleted linked-node
#: engine there; with soa predicted for PC it is PC/twist at 1.19x
#: (soa against that engine's time in BENCH_soa.json).
DIRECTION_FACTOR = 1.5

#: Maximum tolerated fraction of mispredicted rows.
DEFAULT_TOLERANCE = 0.25

#: Payloads replayed when no ``--json`` is given (missing files skip).
DEFAULT_PAYLOADS = (
    "BENCH_soa.json",
    "BENCH_compiled.json",
    "BENCH_parallel.json",
    "BENCH_serve.json",
)

#: Fallback chain mapping a predicted backend into a sweep that did
#: not time it: each backend degrades to the one it is built on
#: (compiled replays soa's emission order; soa is event-identical to
#: the recursive reference).
_DEGRADE_ORDER = ("compiled",) + SINGLE_BACKENDS[::-1]
_FALLBACK_CHAIN = {
    backend: _DEGRADE_ORDER[index:]
    for index, backend in enumerate(_DEGRADE_ORDER)
}


@dataclass
class RowCheck:
    """One validated prediction."""

    label: str
    predicted: str
    mapped: str
    measured_best: str
    ratio: float
    correct: bool

    def render(self) -> str:
        """One ``[ok ]``/``[MISS]`` report line for this row."""
        mark = "ok " if self.correct else "MISS"
        mapped = (
            f" (mapped to {self.mapped})" if self.mapped != self.predicted else ""
        )
        return (
            f"  [{mark}] {self.label}: predicted {self.predicted}{mapped}, "
            f"measured best {self.measured_best}, ratio {self.ratio:.2f}x"
        )


@dataclass
class ValidationResult:
    """All checks for one replayed payload."""

    path: str
    rows: list[RowCheck] = field(default_factory=list)
    skips: list[str] = field(default_factory=list)

    @property
    def misses(self) -> list[RowCheck]:
        return [row for row in self.rows if not row.correct]

    def to_json(self) -> dict:
        """Machine-readable row verdicts and skips for this payload."""
        return {
            "path": self.path,
            "rows": [
                {
                    "label": row.label,
                    "predicted": row.predicted,
                    "mapped": row.mapped,
                    "measured_best": row.measured_best,
                    "ratio": round(row.ratio, 3),
                    "correct": row.correct,
                }
                for row in self.rows
            ],
            "skips": list(self.skips),
        }


def _spec_factories(scale: float) -> dict[str, Callable]:
    from repro.bench.workloads import wallclock_cases

    return {case.name: case.make_spec for case in wallclock_cases(scale)}


def _predict_backend(spec, schedule: str) -> str:
    from repro.core.backend_select import choose_backend

    return choose_backend(spec, schedule_name=schedule).backend


def validate_wallclock(
    payload: dict,
    path: str,
    direction_factor: float = DIRECTION_FACTOR,
    scale_cap: Optional[float] = None,
) -> ValidationResult:
    """Replay one wall-clock payload against the current cost model."""
    result = ValidationResult(path=path)
    scale = float(payload.get("scale", 1.0))
    if scale_cap is not None and scale > scale_cap:
        result.skips.append(
            f"specs rebuilt at scale {scale_cap} (payload measured at "
            f"{scale}; --scale-cap smoke mode)"
        )
        scale = scale_cap
    factories = _spec_factories(scale)
    specs: dict[str, object] = {}
    for entry in payload.get("results", []):
        benchmark = entry.get("benchmark")
        schedule = entry.get("schedule", "original")
        label = f"{benchmark}/{schedule}"
        factory = factories.get(benchmark)
        if factory is None:
            result.skips.append(f"{label}: unknown benchmark, no spec to replay")
            continue
        timings = {
            backend: seconds
            for backend, seconds in entry.get("timings", {}).items()
            if backend != "auto" and isinstance(seconds, (int, float)) and seconds > 0
        }
        if len(timings) < 2:
            result.skips.append(f"{label}: fewer than two measured backends")
            continue
        if benchmark not in specs:
            specs[benchmark] = factory()
        predicted = _predict_backend(specs[benchmark], schedule)
        mapped = next(
            (
                backend
                for backend in _FALLBACK_CHAIN.get(predicted, (predicted,))
                if backend in timings
            ),
            None,
        )
        if mapped is None:
            result.skips.append(
                f"{label}: predicted {predicted!r} and no fallback was timed"
            )
            continue
        best = min(timings, key=timings.get)
        ratio = timings[mapped] / timings[best]
        result.rows.append(
            RowCheck(
                label=label,
                predicted=predicted,
                mapped=mapped,
                measured_best=best,
                ratio=ratio,
                correct=ratio <= direction_factor,
            )
        )
    return result


def validate_parallel(payload: dict, path: str) -> ValidationResult:
    """One direction check: did parallelism pay where the model says?

    The static prediction is purely structural — a host with a single
    core cannot win by spawning, one with two or more might.  The
    measurement is the payload's best ``speedup_vs_serial_soa`` over
    the rows the model actually makes a claim about: the regular
    benchmarks (same scope as the parallel perf floor — the dual-tree
    traversals prune irregularly, so their balance is workload luck)
    at two or more workers (a 1-worker "speedup" is dispatch noise).
    """
    from repro.bench.perf_floor import PARALLEL_FLOOR_BENCHMARKS

    result = ValidationResult(path=path)
    cpu_count = payload.get("host", {}).get("cpu_count") or 1
    predicted_win = cpu_count >= 2
    speedups = [
        run.get("speedup_vs_serial_soa", 0.0)
        for entry in payload.get("results", [])
        if entry.get("benchmark") in PARALLEL_FLOOR_BENCHMARKS
        for run in entry.get("runs", [])
        if run.get("workers", 0) >= 2
    ]
    if not speedups:
        result.skips.append("no parallel runs recorded")
        return result
    measured_win = max(speedups) > 1.0
    # A capable host that fails to win is a measurement fact (task
    # imbalance, starved runner), not a model error — only the claim
    # "a single core wins by spawning" can be falsified.
    correct = predicted_win or not measured_win
    result.rows.append(
        RowCheck(
            label=f"parallel sweep ({cpu_count} core(s))",
            predicted="parallel-win" if predicted_win else "no-parallel-win",
            mapped="parallel-win" if predicted_win else "no-parallel-win",
            measured_best=(
                "parallel-win" if measured_win else "no-parallel-win"
            ),
            ratio=max(speedups),
            correct=correct,
        )
    )
    return result


def validate_payload(
    payload: dict,
    path: str,
    direction_factor: float = DIRECTION_FACTOR,
    scale_cap: Optional[float] = None,
) -> ValidationResult:
    """Dispatch one payload by shape (wall-clock / parallel / serve)."""
    entries = payload.get("results", [])
    if entries and "timings" in entries[0]:
        return validate_wallclock(
            payload, path, direction_factor=direction_factor, scale_cap=scale_cap
        )
    if entries and "runs" in entries[0]:
        return validate_parallel(payload, path)
    result = ValidationResult(path=path)
    result.skips.append(
        "no per-backend rows (serve-style payload); nothing to validate"
    )
    return result


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench cost-validate",
        description="Fail if the static cost model mispredicts the "
        "measured winner on too many checked-in BENCH rows.",
    )
    parser.add_argument(
        "--json",
        action="append",
        metavar="PATH",
        help="payload to replay (repeatable; default: every checked-in "
        "BENCH_*.json, missing files skipped)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="maximum tolerated fraction of mispredicted rows "
        f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--direction-factor",
        type=float,
        default=DIRECTION_FACTOR,
        help="predicted backend may lag the measured best by this "
        f"factor and still count as correct (default {DIRECTION_FACTOR})",
    )
    parser.add_argument(
        "--scale-cap",
        type=float,
        default=None,
        help="rebuild replay specs at no more than this scale (CI "
        "smoke mode; predictions are replayed, timings are not)",
    )
    parser.add_argument(
        "--emit-json",
        metavar="PATH",
        default=None,
        help="also write the row-by-row verdicts as JSON",
    )
    args = parser.parse_args(argv)

    paths = args.json if args.json else list(DEFAULT_PAYLOADS)
    results: list[ValidationResult] = []
    for path in paths:
        if not os.path.exists(path):
            if args.json:
                print(f"error: cannot read {path}", file=sys.stderr)
                return 2
            continue
        with open(path) as handle:
            payload = json.load(handle)
        results.append(
            validate_payload(
                payload,
                path,
                direction_factor=args.direction_factor,
                scale_cap=args.scale_cap,
            )
        )

    all_rows = [row for result in results for row in result.rows]
    misses = [row for row in all_rows if not row.correct]
    for result in results:
        print(f"{result.path}:")
        for row in result.rows:
            print(row.render())
        for skip in result.skips:
            print(f"  (skip) {skip}")
    if args.emit_json:
        with open(args.emit_json, "w") as handle:
            json.dump(
                {
                    "kind": "cost-validate",
                    "direction_factor": args.direction_factor,
                    "tolerance": args.tolerance,
                    "payloads": [result.to_json() for result in results],
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
    if not all_rows:
        print("cost model validation: no rows to check")
        return 0
    fraction = len(misses) / len(all_rows)
    if fraction > args.tolerance:
        print(
            f"cost model validation FAILED: {len(misses)}/{len(all_rows)} "
            f"rows mispredicted ({fraction:.0%} > {args.tolerance:.0%})"
        )
        return 1
    print(
        f"cost model validation passed: {len(all_rows) - len(misses)}/"
        f"{len(all_rows)} rows directionally correct "
        f"({len(misses)} tolerated miss(es))"
    )
    return 0
