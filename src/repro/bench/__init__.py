"""Benchmark harness: workloads, runner, reporting, experiment drivers.

* :mod:`repro.bench.workloads` — the six Section 6.1 benchmarks (plus
  KDE for the backend sweep) as :class:`BenchmarkCase` objects (scaled
  inputs);
* :mod:`repro.bench.machine` — the simulated evaluation machine;
* :mod:`repro.bench.runner` — instrumented execution → perf reports;
* :mod:`repro.bench.reporting` — ASCII experiment tables;
* :mod:`repro.bench.experiments` — one driver per paper figure/table;
* :mod:`repro.bench.wallclock` — real-time backend comparison across
  recursive/soa/compiled/auto (emits ``BENCH_soa.json``);
* :mod:`repro.bench.perf_floor` — the CI gate holding ``auto`` to
  within 10% of the best single backend.
"""

from repro.bench.machine import bench_hierarchy
from repro.bench.perf_floor import check_perf_floor
from repro.bench.reporting import ExperimentReport, ascii_bar, percent
from repro.bench.runner import run_case, run_pair
from repro.bench.wallclock import run_wallclock, time_backend, write_bench_json
from repro.bench.workloads import (
    BenchmarkCase,
    all_cases,
    make_kde,
    make_knn,
    make_mm,
    make_nn,
    make_pc,
    make_tj,
    make_vp,
    register_spatial_layout,
    wallclock_cases,
)

__all__ = [
    "BenchmarkCase",
    "ExperimentReport",
    "all_cases",
    "ascii_bar",
    "bench_hierarchy",
    "check_perf_floor",
    "make_kde",
    "make_knn",
    "make_mm",
    "make_nn",
    "make_pc",
    "make_tj",
    "make_vp",
    "percent",
    "register_spatial_layout",
    "run_case",
    "run_pair",
    "run_wallclock",
    "time_backend",
    "wallclock_cases",
    "write_bench_json",
]
