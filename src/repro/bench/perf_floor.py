"""CI perf floors: ``auto`` tracking and real parallel speedup.

The point of ``backend="auto"`` is that nobody should have to sweep
backends by hand; the selector is only trustworthy if it never falls
far behind the best single backend on any (benchmark, schedule) pair.
This module turns that contract into a CI gate: it parses a
``BENCH_soa.json`` payload (written by ``python -m repro.bench
wallclock``) and fails if any entry's auto speedup drops below
``floor`` (default 0.9) times the best single-backend speedup — i.e.
if ``auto`` is more than 10% slower than the best backend anywhere.

A second, host-aware gate (:func:`check_parallel_floor`) guards the
multi-worker runtime's ``BENCH_parallel.json``: the 4-worker process
engine must reach :data:`PARALLEL_MIN_SPEEDUP` over the serial SoA
baseline on the regular benchmarks (TJ, MM) — *speed* checks are
skipped when the measuring host has fewer cores than the row's worker
count, but *correctness* (``results_match``) always gates.

A third, host-aware gate (:func:`check_compiled_floor`) guards a
compiled-backend wall-clock payload: ``compiled`` must reach
:data:`COMPILED_MIN_SPEEDUP` over serial ``soa`` on the lowerable
regular benchmarks (TJ, MM) when the host has numba and at least two
cores; without those, the speed check self-reports a skip while
correctness (``results_match``, no refusal on TJ/MM) and the choice
(``auto`` must pick ``compiled`` on TJ/MM) always gate.

A fourth, host-aware gate (:func:`check_serve_floor`) guards the
serving suite's ``BENCH_serve.json``: every run must stay bit-identical
to the serial oracle and every dedup run must fold duplicates on the
skewed workload (always gated); the dedup+sharded candidate must beat
the PR 8 single-shard baseline on qps and p99 whenever the host has
:data:`SERVE_FLOOR_MIN_CPU`+ cores.

Result mismatches fail the gates too: a fast wrong backend is worse
than a slow right one.

Run it as ``python -m repro.bench perf-floor [--json PATH]
[--parallel-json PATH] [--compiled-json PATH] [--serve-json PATH]``.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

#: Default floor: auto must reach 90% of the best single backend.
DEFAULT_FLOOR = 0.9

#: Backends eligible as "best single" references.
SINGLE_BACKENDS = ("recursive", "batched", "soa", "compiled")

#: Required compiled-over-soa speedup on the lowerable regular
#: benchmarks.  The compiled backend replaces the interpreted
#: traversal and its per-block staging with one fused kernel over
#: streamed position blocks, so it must clear this bar wherever the
#: hardware can show it.
COMPILED_MIN_SPEEDUP = 1.3

#: Benchmarks the compiled floor guards: the two TW20x-``lowerable``
#: regular kernels every sweep carries.
COMPILED_FLOOR_BENCHMARKS = ("TJ", "MM")

#: Required 4-worker process-engine speedup over serial SoA on the
#: regular benchmarks.  Far below linear on purpose: pool startup,
#: shared-memory publication, and reduction are all inside the timer.
PARALLEL_MIN_SPEEDUP = 1.5

#: Benchmarks whose parallel speedup the floor guards.  The dual-tree
#: traversals prune irregularly (task imbalance is workload-dependent)
#: so only the regular kernels carry a hard number.
PARALLEL_FLOOR_BENCHMARKS = ("TJ", "MM")

#: The (engine, workers) row the parallel floor reads.
PARALLEL_FLOOR_CONFIG = ("process", 4)

#: Cores the serve floor's speed comparison needs: the sharded
#: candidate only has hardware to beat the single-shard baseline when
#: at least two cores exist.
SERVE_FLOOR_MIN_CPU = 2


def check_perf_floor(
    payload: dict, floor: float = DEFAULT_FLOOR
) -> list[str]:
    """Violation messages for one wall-clock payload (empty = pass).

    An entry violates the floor when ``auto``'s wall-clock time exceeds
    ``best_single / floor`` — equivalently, when auto's speedup over
    recursive is below ``floor`` times the best single backend's.
    Entries without an ``auto`` timing are skipped (a filtered sweep);
    entries with mismatched results always violate.
    """
    violations = []
    for entry in payload.get("results", []):
        label = f"{entry.get('benchmark')}/{entry.get('schedule')}"
        if not entry.get("results_match", True):
            violations.append(f"{label}: backend results mismatch")
            continue
        timings = entry.get("timings", {})
        auto_s = timings.get("auto")
        singles = {
            backend: seconds
            for backend, seconds in timings.items()
            if backend in SINGLE_BACKENDS
            and isinstance(seconds, (int, float))
            and seconds > 0
        }
        if auto_s is None or not singles:
            continue
        best_backend = min(singles, key=singles.get)
        best_s = singles[best_backend]
        ratio = best_s / auto_s if auto_s > 0 else float("inf")
        if ratio < floor:
            violations.append(
                f"{label}: auto ({auto_s:.4f}s, picked "
                f"{entry.get('auto_choice', '?')}) is {ratio:.2f}x the best "
                f"single backend ({best_backend}, {best_s:.4f}s); "
                f"floor is {floor:.2f}"
            )
    return violations


def check_parallel_floor(
    payload: dict,
    min_speedup: float = PARALLEL_MIN_SPEEDUP,
    host_cpu_count: int | None = None,
) -> tuple[list[str], list[str]]:
    """Check one ``BENCH_parallel.json`` payload.

    Returns ``(violations, skips)``.  Correctness first: any run with
    ``results_match`` false violates, on every benchmark, engine, and
    worker count.  Speed second, host-aware: on the benchmarks in
    :data:`PARALLEL_FLOOR_BENCHMARKS` (schedule ``original``), the
    :data:`PARALLEL_FLOOR_CONFIG` row must reach ``min_speedup`` over
    serial SoA — unless the measuring host (``host.cpu_count`` in the
    payload, overridable for tests) has fewer cores than the row's
    worker count, in which case the speed check lands in ``skips``
    instead: an undersized host cannot falsify a parallelism claim.
    """
    engine, workers = PARALLEL_FLOOR_CONFIG
    if host_cpu_count is None:
        host_cpu_count = payload.get("host", {}).get("cpu_count")
    if host_cpu_count is None:
        host_cpu_count = os.cpu_count() or 1
    violations: list[str] = []
    skips: list[str] = []
    for entry in payload.get("results", []):
        label = f"{entry.get('benchmark')}/{entry.get('schedule')}"
        for run in entry.get("runs", []):
            run_label = (
                f"{label} [{run.get('engine')}, "
                f"{run.get('workers')} workers]"
            )
            if not run.get("results_match", True):
                violations.append(
                    f"{run_label}: parallel results diverge from serial"
                )
        if (
            entry.get("benchmark") not in PARALLEL_FLOOR_BENCHMARKS
            or entry.get("schedule") != "original"
        ):
            continue
        row = next(
            (
                run
                for run in entry.get("runs", [])
                if run.get("engine") == engine
                and run.get("workers") == workers
            ),
            None,
        )
        if row is None:
            continue
        if host_cpu_count < workers:
            skips.append(
                f"{label}: speed check skipped — host has "
                f"{host_cpu_count} core(s), row needs {workers}"
            )
            continue
        speedup = row.get("speedup_vs_serial_soa", 0.0)
        if speedup < min_speedup:
            violations.append(
                f"{label} [{engine}, {workers} workers]: speedup "
                f"{speedup:.2f}x over serial soa is below the "
                f"{min_speedup:.2f}x floor"
            )
    return violations, skips


def check_compiled_floor(
    payload: dict,
    min_speedup: float = COMPILED_MIN_SPEEDUP,
    host_cpu_count: int | None = None,
    host_numba: bool | None = None,
) -> tuple[list[str], list[str]]:
    """Check a wall-clock payload that timed the compiled backend.

    Returns ``(violations, skips)``.  Correctness first: any entry
    with ``results_match`` false violates.  Speed second, host-aware:
    on :data:`COMPILED_FLOOR_BENCHMARKS`, every entry that timed both
    ``soa`` and ``compiled`` must show ``soa_s / compiled_s >=
    min_speedup`` — unless the measuring host (the payload's ``host``
    key, overridable for tests) has no importable numba or fewer than
    2 cores, in which case the speed check lands in ``skips``: the
    pure-NumPy fallback on a starved host cannot falsify the jitted
    backend's speed claim.  A compiled *refusal* on a floor benchmark
    is always a violation — TJ/MM regressing below ``lowerable`` must
    turn the gate red — and so is an ``auto_choice`` other than
    ``compiled`` on one: the selector must run a lowerable spec on the
    fused backend on every host, whatever its core count.
    """
    host = payload.get("host", {})
    if host_cpu_count is None:
        host_cpu_count = host.get("cpu_count") or os.cpu_count() or 1
    if host_numba is None:
        host_numba = bool(host.get("numba"))
    speed_ok = host_numba and host_cpu_count >= 2
    violations: list[str] = []
    skips: list[str] = []
    for entry in payload.get("results", []):
        label = f"{entry.get('benchmark')}/{entry.get('schedule')}"
        if not entry.get("results_match", True):
            violations.append(f"{label}: backend results mismatch")
            continue
        if entry.get("benchmark") not in COMPILED_FLOOR_BENCHMARKS:
            continue
        auto_choice = entry.get("auto_choice")
        if auto_choice is not None and auto_choice != "compiled":
            violations.append(
                f"{label}: auto picked {auto_choice!r} on a floor "
                f"benchmark, not 'compiled' ({entry.get('auto_reason', '')})"
            )
        timings = entry.get("timings", {})
        compiled_s = timings.get("compiled")
        soa_s = timings.get("soa")
        if "compiled" in entry.get("refused", {}):
            violations.append(
                f"{label}: compiled refused a floor benchmark "
                f"({entry['refused']['compiled']})"
            )
            continue
        if not isinstance(compiled_s, (int, float)) or not isinstance(
            soa_s, (int, float)
        ):
            continue
        if not speed_ok:
            skips.append(
                f"{label}: compiled speed check skipped — host has "
                f"{host_cpu_count} core(s), numba "
                f"{'importable' if host_numba else 'not importable'}"
            )
            continue
        speedup = soa_s / compiled_s if compiled_s > 0 else float("inf")
        if speedup < min_speedup:
            violations.append(
                f"{label}: compiled is {speedup:.2f}x soa "
                f"({compiled_s:.4f}s vs {soa_s:.4f}s); floor is "
                f"{min_speedup:.2f}x"
            )
    return violations, skips


def check_serve_floor(
    payload: dict,
    host_cpu_count: int | None = None,
) -> tuple[list[str], list[str]]:
    """Check one ``BENCH_serve.json`` suite payload.

    Returns ``(violations, skips)``.  Correctness always gates: every
    run must be bit-identical to the serial oracle, and every
    dedup-enabled run must show a nonzero dedup hit rate on the skewed
    workload (a zero rate means the folding silently stopped).  Speed
    is host-aware: the payload's ``comparison`` candidate (dedup +
    shards) must beat its baseline (the PR 8 single-shard, no-dedup
    config) on both qps and p99 — skipped when the measuring host has
    fewer than :data:`SERVE_FLOOR_MIN_CPU` cores, where scattering
    shards buys nothing a correctness check could falsify.
    """
    if host_cpu_count is None:
        host_cpu_count = payload.get("host", {}).get("cpu_count")
    if host_cpu_count is None:
        host_cpu_count = os.cpu_count() or 1
    violations: list[str] = []
    skips: list[str] = []
    runs = payload.get("runs", {})
    if not runs:
        violations.append("serve payload carries no runs")
        return violations, skips
    for name, run in runs.items():
        if not run.get("bit_identical", False):
            violations.append(
                f"serve[{name}]: answers are not bit-identical to the "
                "serial oracle"
            )
        if run.get("config", {}).get("dedup") and (
            run.get("dedup_hit_rate", 0.0) <= 0.0
        ):
            violations.append(
                f"serve[{name}]: dedup enabled but the hit rate is zero "
                "on the skewed workload"
            )
    comparison = payload.get("comparison", {})
    baseline = runs.get(comparison.get("baseline"))
    candidate = runs.get(comparison.get("candidate"))
    if baseline is None or candidate is None:
        violations.append(
            "serve payload's comparison does not name two present runs"
        )
        return violations, skips
    if host_cpu_count < SERVE_FLOOR_MIN_CPU:
        skips.append(
            f"serve[{comparison['candidate']}]: speed check skipped — "
            f"host has {host_cpu_count} core(s), floor needs "
            f">= {SERVE_FLOOR_MIN_CPU}"
        )
        return violations, skips
    if candidate.get("qps", 0.0) <= baseline.get("qps", 0.0):
        violations.append(
            f"serve[{comparison['candidate']}]: qps "
            f"{candidate.get('qps', 0.0):.1f} does not beat the "
            f"{comparison['baseline']} baseline "
            f"({baseline.get('qps', 0.0):.1f})"
        )
    candidate_p99 = candidate.get("latency_ms", {}).get("p99")
    baseline_p99 = baseline.get("latency_ms", {}).get("p99")
    if (
        isinstance(candidate_p99, (int, float))
        and isinstance(baseline_p99, (int, float))
        and candidate_p99 > baseline_p99
    ):
        violations.append(
            f"serve[{comparison['candidate']}]: p99 {candidate_p99:.3f}ms "
            f"regresses the {comparison['baseline']} baseline "
            f"({baseline_p99:.3f}ms)"
        )
    return violations, skips


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf-floor",
        description="Fail if backend='auto' falls below the perf floor.",
    )
    parser.add_argument(
        "--json",
        default="BENCH_soa.json",
        help="wall-clock payload to check (default BENCH_soa.json)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=DEFAULT_FLOOR,
        help="required fraction of the best single backend's speedup "
        f"(default {DEFAULT_FLOOR})",
    )
    parser.add_argument(
        "--parallel-json",
        default=None,
        help="also check a BENCH_parallel.json payload (host-aware "
        f"{PARALLEL_MIN_SPEEDUP}x floor on "
        f"{'/'.join(PARALLEL_FLOOR_BENCHMARKS)})",
    )
    parser.add_argument(
        "--parallel-floor",
        type=float,
        default=PARALLEL_MIN_SPEEDUP,
        help="required parallel speedup over serial soa "
        f"(default {PARALLEL_MIN_SPEEDUP})",
    )
    parser.add_argument(
        "--compiled-json",
        default=None,
        help="also check a compiled-backend wall-clock payload "
        f"(host-aware {COMPILED_MIN_SPEEDUP}x-over-soa floor on "
        f"{'/'.join(COMPILED_FLOOR_BENCHMARKS)})",
    )
    parser.add_argument(
        "--compiled-floor",
        type=float,
        default=COMPILED_MIN_SPEEDUP,
        help="required compiled speedup over soa "
        f"(default {COMPILED_MIN_SPEEDUP})",
    )
    parser.add_argument(
        "--serve-json",
        default=None,
        help="also check a BENCH_serve.json suite payload (host-aware "
        "dedup+sharded-beats-baseline floor; correctness always gated)",
    )
    args = parser.parse_args(argv)
    with open(args.json) as handle:
        payload = json.load(handle)
    violations = check_perf_floor(payload, floor=args.floor)
    checked = sum(
        1
        for entry in payload.get("results", [])
        if "auto" in entry.get("timings", {})
    )
    skips: list[str] = []
    parallel_checked = 0
    if args.parallel_json is not None:
        with open(args.parallel_json) as handle:
            parallel_payload = json.load(handle)
        parallel_violations, skips = check_parallel_floor(
            parallel_payload, min_speedup=args.parallel_floor
        )
        violations += parallel_violations
        parallel_checked = sum(
            len(entry.get("runs", []))
            for entry in parallel_payload.get("results", [])
        )
    compiled_checked = 0
    if args.compiled_json is not None:
        with open(args.compiled_json) as handle:
            compiled_payload = json.load(handle)
        compiled_violations, compiled_skips = check_compiled_floor(
            compiled_payload, min_speedup=args.compiled_floor
        )
        violations += compiled_violations
        skips += compiled_skips
        compiled_checked = sum(
            1
            for entry in compiled_payload.get("results", [])
            if entry.get("benchmark") in COMPILED_FLOOR_BENCHMARKS
            and isinstance(
                entry.get("timings", {}).get("compiled"), (int, float)
            )
        )
    serve_checked = 0
    if args.serve_json is not None:
        with open(args.serve_json) as handle:
            serve_payload = json.load(handle)
        serve_violations, serve_skips = check_serve_floor(serve_payload)
        violations += serve_violations
        skips += serve_skips
        serve_checked = len(serve_payload.get("runs", {}))
    if violations:
        print(f"perf floor FAILED ({len(violations)} violation(s)):")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    for skip in skips:
        print(f"  (skip) {skip}")
    message = (
        f"perf floor passed: auto within {args.floor:.0%} of the best "
        f"single backend on all {checked} checked configurations"
    )
    if args.parallel_json is not None:
        message += f"; parallel floor checked {parallel_checked} run(s)"
    if args.compiled_json is not None:
        message += (
            f"; compiled floor checked {compiled_checked} entr(y/ies)"
        )
    if args.serve_json is not None:
        message += f"; serve floor checked {serve_checked} run(s)"
    if skips:
        message += f" ({len(skips)} host-aware skip(s))"
    print(message)
    return 0
