"""Command-line runner for individual paper experiments.

A lighter-weight alternative to the pytest benchmark suite when you
want one figure quickly::

    python -m repro.bench fig5                 # Figure 5 CDF table
    python -m repro.bench fig7 --scale 0.25    # quarter-size speedups
    python -m repro.bench list                 # available experiments
    python -m repro.bench all --scale 0.1      # everything, small

Each experiment prints its paper-shaped table to stdout (the same
renderings the benchmark suite saves under ``results/``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable


def _fig1(scale: float):
    from repro.bench.experiments import run_fig1_fig4

    return run_fig1_fig4()[0]


def _fig5(scale: float):
    from repro.bench.experiments import run_fig5

    return run_fig5(num_nodes=max(64, int(1024 * scale)))[0]


def _fig7(scale: float):
    from repro.bench.experiments import fig7_report, run_fig7

    return fig7_report(run_fig7(scale=scale))


def _fig8(scale: float):
    from repro.bench.experiments import fig8_reports, run_fig7

    overhead, misses = fig8_reports(run_fig7(scale=scale))
    return _join(overhead, misses)


def _fig9(scale: float):
    from repro.bench.experiments import run_fig9
    from repro.bench.experiments.fig9 import DEFAULT_SIZES

    sizes = tuple(max(64, int(size * scale)) for size in DEFAULT_SIZES)
    return run_fig9(sizes=sizes)[0]


def _fig10(scale: float):
    from repro.bench.experiments import run_fig10

    return run_fig10(num_points=max(256, int(2048 * scale)))[0]


def _sec42(scale: float):
    from repro.bench.experiments import run_sec42

    return run_sec42(num_points=max(256, int(4096 * scale)))[0]


def _sec61(scale: float):
    from repro.bench.experiments import run_sec61

    return run_sec61(scale=min(scale, 0.25))[0]


def _sec72(scale: float):
    from repro.bench.experiments import run_sec72

    return run_sec72(n=max(16, int(48 * scale)))[0]


def _sec73(scale: float):
    from repro.bench.experiments import run_sec73

    return run_sec73(num_nodes=max(100, int(500 * scale)))[0]


def _wallclock(scale: float, args: "argparse.Namespace | None" = None):
    from repro.bench.wallclock import (
        DEFAULT_BACKENDS,
        DEFAULT_SCHEDULES,
        run_wallclock,
        write_bench_json,
    )
    from repro.bench.workloads import wallclock_cases

    cases = wallclock_cases(scale)
    schedules = list(DEFAULT_SCHEDULES)
    backends = list(DEFAULT_BACKENDS)
    repeats = 3
    if args is not None:
        if args.benchmark:
            wanted = {name.upper() for name in args.benchmark}
            known = {case.name for case in cases}
            unknown = wanted - known
            if unknown:
                raise SystemExit(
                    f"error: unknown benchmark(s) {sorted(unknown)}; "
                    f"known: {sorted(known)}"
                )
            cases = [case for case in cases if case.name in wanted]
        if args.schedule:
            schedules = list(args.schedule)
        if args.backend:
            backends = list(args.backend)
        repeats = args.repeats
    report, payload = run_wallclock(
        scale=scale,
        schedule_names=schedules,
        backends=backends,
        repeats=repeats,
        cases=cases,
    )
    out = "BENCH_soa.json"
    if args is not None and getattr(args, "json", None):
        out = args.json
    path = write_bench_json(payload, out)
    report.add_note(f"JSON payload written to {path}")
    return report


def _parallel(scale: float, args: "argparse.Namespace | None" = None):
    from repro.bench.parallel_sweep import (
        DEFAULT_ENGINES,
        DEFAULT_SCHEDULES,
        DEFAULT_WORKERS,
        run_parallel_sweep,
        write_parallel_json,
    )
    from repro.bench.workloads import all_cases

    cases = all_cases(scale)
    schedules = list(DEFAULT_SCHEDULES)
    engines = list(DEFAULT_ENGINES)
    workers = list(DEFAULT_WORKERS)
    repeats = 3
    if args is not None:
        if args.benchmark:
            wanted = {name.upper() for name in args.benchmark}
            known = {case.name for case in cases}
            unknown = wanted - known
            if unknown:
                raise SystemExit(
                    f"error: unknown benchmark(s) {sorted(unknown)}; "
                    f"known: {sorted(known)}"
                )
            cases = [case for case in cases if case.name in wanted]
        if args.schedule:
            schedules = list(args.schedule)
        if args.engine:
            engines = list(args.engine)
        if args.workers:
            workers = list(args.workers)
        repeats = args.repeats
    report, payload = run_parallel_sweep(
        scale=scale,
        schedule_names=schedules,
        engines=engines,
        workers=workers,
        repeats=repeats,
        cases=cases,
    )
    path = write_parallel_json(payload)
    report.add_note(f"JSON payload written to {path}")
    return report


def _serve(scale: float, args: "argparse.Namespace | None" = None):
    from repro.bench.serve_load import (
        DEFAULT_JSON_PATH,
        DEFAULT_REFERENCES,
        DEFAULT_RUNS,
        DEFAULT_USERS,
        LoadSpec,
        RunConfig,
        run_serve_suite,
        write_serve_json,
    )
    from repro.serve.service import ServiceConfig

    users = max(64, int(DEFAULT_USERS * scale))
    references = max(256, int(DEFAULT_REFERENCES * scale))
    kwargs: dict = {}
    config = ServiceConfig()
    runs = list(DEFAULT_RUNS)
    if args is not None:
        if args.users is not None:
            users = args.users
        if args.references is not None:
            references = args.references
        if args.serial_sample is not None:
            kwargs["serial_sample"] = args.serial_sample
        if args.concurrency is not None:
            kwargs["concurrency"] = args.concurrency
        if args.hot_fraction is not None:
            kwargs["hot_fraction"] = args.hot_fraction
        if args.max_batch is not None:
            config = ServiceConfig(max_batch=args.max_batch)
        if args.shards:
            # Custom shard sweep: keep the PR 8 baseline as the first
            # run, then one dedup run per requested shard count.
            runs = [DEFAULT_RUNS[0]]
            for shards in args.shards:
                name = "dedup" if shards == 1 else f"dedup-{shards}shards"
                runs.append(RunConfig(name, shards=shards))
    spec = LoadSpec(references=references, users=users, **kwargs)
    report, payload = run_serve_suite(spec, config, runs=runs)
    out = DEFAULT_JSON_PATH
    if args is not None and args.json != "BENCH_soa.json":
        out = args.json
    path = write_serve_json(payload, out)
    report.add_note(f"JSON payload written to {path}")
    return report


def _trajectory(scale: float, args: "argparse.Namespace | None" = None):
    from repro.bench.trajectory import run_trajectory

    return run_trajectory()


def _ablations(scale: float):
    from repro.bench.experiments import run_layout_ablation, run_truncation_ablation

    first = run_truncation_ablation(num_points=max(512, int(4096 * scale)))[0]
    second = run_layout_ablation(num_nodes=max(200, int(1000 * scale)))[0]
    return _join(first, second)


class _Joined:
    """Several reports rendered together."""

    def __init__(self, reports):
        self.reports = reports

    def render(self) -> str:
        return "\n\n".join(report.render() for report in self.reports)


def _join(*reports):
    return _Joined(list(reports))


EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig1": ("Figures 1(c)/4(b) + the Section 3.2 worked example", _fig1),
    "fig5": ("Figure 5: TJ reuse-distance CDF", _fig5),
    "fig7": ("Figure 7: speedups on all six benchmarks", _fig7),
    "fig8": ("Figure 8: instruction overhead + miss rates", _fig8),
    "fig9": ("Figure 9: PC across input sizes", _fig9),
    "fig10": ("Figure 10: the Section 7.1 cutoff study", _fig10),
    "sec42": ("Section 4.2 iteration counts", _sec42),
    "sec61": ("Section 6.1 benchmark inventory", _sec61),
    "sec72": ("Section 7.2 extension: multi-level MMM", _sec72),
    "sec73": ("Section 7.3 extension: task parallelism", _sec73),
    "ablations": ("Truncation-machinery and layout ablations", _ablations),
    "wallclock": (
        "Wall-clock: all executor backends (writes BENCH_soa.json)",
        _wallclock,
    ),
    "parallel": (
        "Wall-clock: multi-worker runtime sweep (writes "
        "BENCH_parallel.json)",
        _parallel,
    ),
    "serve": (
        "Serving load generator: batched service vs per-query serial "
        "(writes BENCH_serve.json)",
        _serve,
    ),
    "trajectory": (
        "Speedup history: aggregate all checked-in BENCH_*.json",
        _trajectory,
    ),
}

#: Experiments whose runners take the parsed args (extra filters).
_ARGS_AWARE = ("wallclock", "parallel", "serve", "trajectory")


def build_parser() -> argparse.ArgumentParser:
    from repro.bench.wallclock import SINGLE_BACKENDS

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run one paper experiment and print its table.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', 'list', 'perf-floor', "
        "'sanitize', or 'cost-validate'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor (default 1.0 = paper-shaped sizes)",
    )
    wallclock = parser.add_argument_group(
        "wallclock filters", "narrow the backend sweep (wallclock only)"
    )
    wallclock.add_argument(
        "--benchmark",
        action="append",
        metavar="NAME",
        help="only this benchmark (repeatable; e.g. TJ, MM, KDE)",
    )
    wallclock.add_argument(
        "--schedule",
        action="append",
        metavar="NAME",
        help="only this schedule (repeatable; e.g. original, twist)",
    )
    wallclock.add_argument(
        "--backend",
        action="append",
        metavar="NAME",
        choices=SINGLE_BACKENDS + ("auto",),
        help="only this backend (repeatable)",
    )
    wallclock.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of-N timing repeats (default 3)",
    )
    par = parser.add_argument_group(
        "parallel sweep filters", "narrow the worker sweep (parallel only)"
    )
    par.add_argument(
        "--engine",
        action="append",
        metavar="NAME",
        choices=("process", "thread"),
        help="only this engine (repeatable)",
    )
    par.add_argument(
        "--workers",
        action="append",
        type=int,
        metavar="N",
        help="only this worker count (repeatable; default 1 2 4)",
    )
    serve = parser.add_argument_group(
        "serve options", "for the 'serve' load generator"
    )
    serve.add_argument(
        "--users",
        type=int,
        default=None,
        help="simulated users (default 100000, scaled by --scale)",
    )
    serve.add_argument(
        "--references",
        type=int,
        default=None,
        help="reference-set size (default 16384, scaled by --scale)",
    )
    serve.add_argument(
        "--serial-sample",
        type=int,
        default=None,
        help="users sampled for the serial baseline (default 1500)",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="simulated users in flight at once (default 2048)",
    )
    serve.add_argument(
        "--hot-fraction",
        type=float,
        default=None,
        help="fraction of users re-asking a hot query (default 0.7)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="admission batch cap (default 256)",
    )
    serve.add_argument(
        "--shards",
        action="append",
        type=int,
        metavar="N",
        help="shard counts to sweep after the baseline run (repeatable; "
        "default: 1 and 2)",
    )
    floor = parser.add_argument_group(
        "perf-floor options", "for the 'perf-floor' CI gate"
    )
    floor.add_argument(
        "--json",
        default="BENCH_soa.json",
        help="wall-clock payload path: written by 'wallclock', read by "
        "'perf-floor' (default BENCH_soa.json)",
    )
    floor.add_argument(
        "--floor",
        type=float,
        default=None,
        help="required fraction of the best single backend (default 0.9)",
    )
    floor.add_argument(
        "--parallel-json",
        default=None,
        help="also gate a BENCH_parallel.json payload (host-aware "
        "1.5x floor on TJ/MM)",
    )
    floor.add_argument(
        "--compiled-json",
        default=None,
        help="also gate a compiled-backend wall-clock payload "
        "(host-aware 1.3x-over-soa floor on TJ/MM)",
    )
    floor.add_argument(
        "--serve-json",
        default=None,
        help="also gate a serving-suite payload (bit-identity and "
        "dedup hit rate always; host-aware qps/p99 floor)",
    )
    floor.add_argument(
        "--scale-cap",
        type=float,
        default=None,
        help="cost-validate: rebuild replay specs at no more than this "
        "scale (CI smoke mode)",
    )
    floor.add_argument(
        "--emit-json",
        default=None,
        metavar="PATH",
        help="cost-validate: also write the per-row verdicts to PATH",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (description, _runner) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {description}")
        print(
            f"{'perf-floor'.ljust(width)}  CI gate: auto backend within "
            "the floor of the best single backend"
        )
        print(
            f"{'sanitize'.ljust(width)}  CI gate: vectorized backends "
            "shadow-checked against recursive (writes SANITIZE.json)"
        )
        print(
            f"{'cost-validate'.ljust(width)}  CI gate: static cost-model "
            "predictions vs measured BENCH_*.json winners"
        )
        return 0
    if args.experiment in ("cost-validate", "cost_validate"):
        from repro.bench.cost_validate import main as cost_main

        cost_argv: list[str] = []
        if args.json != "BENCH_soa.json":
            cost_argv += ["--json", args.json]
        if args.scale_cap is not None:
            cost_argv += ["--scale-cap", str(args.scale_cap)]
        if args.emit_json is not None:
            cost_argv += ["--emit-json", args.emit_json]
        return cost_main(cost_argv)
    if args.experiment == "perf-floor":
        from repro.bench.perf_floor import DEFAULT_FLOOR, main as floor_main

        floor = DEFAULT_FLOOR if args.floor is None else args.floor
        floor_argv = ["--json", args.json, "--floor", str(floor)]
        if args.parallel_json is not None:
            floor_argv += ["--parallel-json", args.parallel_json]
        if args.compiled_json is not None:
            floor_argv += ["--compiled-json", args.compiled_json]
        if args.serve_json is not None:
            floor_argv += ["--serve-json", args.serve_json]
        return floor_main(floor_argv)
    if args.experiment == "sanitize":
        from repro.bench.sanitize_sweep import DEFAULT_JSON_PATH, main as sanitize_main

        sanitize_argv = ["--scale", str(args.scale)]
        if args.json != "BENCH_soa.json":
            sanitize_argv += ["--json", args.json]
        else:
            sanitize_argv += ["--json", DEFAULT_JSON_PATH]
        for name in args.benchmark or ():
            sanitize_argv += ["--benchmark", name]
        return sanitize_main(sanitize_argv)
    if args.scale <= 0:
        print("error: --scale must be positive", file=sys.stderr)
        return 2
    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        print(
            f"error: unknown experiment {args.experiment!r}; "
            f"try 'list'",
            file=sys.stderr,
        )
        return 2
    for name in names:
        _description, runner = EXPERIMENTS[name]
        if name in _ARGS_AWARE:
            print(runner(args.scale, args).render())
        else:
            print(runner(args.scale).render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
