"""The batch workload's solver process (``python -m harness.solver``).

One fresh process per use, so ``setup_s`` includes interpreter start,
imports and ``choose_backend``'s first, unmemoized analysis.  Modes:

* ``setup`` — build every job's inputs, call ``choose_backend`` once
  per job, print ``ready`` and exit (a ``setup_s`` sample);
* ``run`` — the same set-up, then one cold run of every job (the
  discarded warm-up) and warm rounds of all six jobs until ``--seconds``
  have passed, each through ``Schedule.run(spec, backend="auto")``;
* ``reference`` — the listed jobs once on the ``recursive`` backend.

The parent reads one JSON event per stdout line and the outputs from
``--out`` (JSON, plus ``<out>.npz`` for matrix outputs).  With
``--trace-dir`` the layer spans are installed before anything is built
and written to that directory when the process ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from harness.inputs import BATCH_JOBS, TINY_BATCH, BatchSizes, batch_arrays

#: Stop starting rounds after this long, to end well inside 180 s.
ROUND_BUDGET_S = 100.0


def _emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def _digest(*arrays: np.ndarray) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def build_jobs(seed: int, sizes: BatchSizes) -> dict:
    """Job name -> (schedule name, instance, output reader)."""
    from repro.dualtree.algorithms import NearestNeighbor, PointCorrelation
    from repro.dualtree.kde import KernelDensity
    from repro.kernels.matmul import MatrixMultiply
    from repro.kernels.treejoin import TreeJoin

    arrays = batch_arrays(seed, sizes)
    tj = TreeJoin(sizes.tj_nodes, sizes.tj_nodes)
    mm = MatrixMultiply(n=sizes.mm_n, m=sizes.mm_n, p=sizes.mm_p)
    mm.a, mm.b = arrays["mm.a"], arrays["mm.b"]
    pc = PointCorrelation(
        arrays["pc.points"], radius=sizes.pc_radius, leaf_size=sizes.leaf_size
    )
    nn = NearestNeighbor(
        arrays["nn.queries"], arrays["nn.references"], leaf_size=sizes.leaf_size
    )
    kde = KernelDensity(
        arrays["kde.queries"],
        arrays["kde.references"],
        bandwidth=sizes.kde_bandwidth,
        epsilon=sizes.kde_epsilon,
        leaf_size=sizes.leaf_size,
    )

    def tj_output():
        return [int(tj.accumulator.total), int(tj.accumulator.pairs)]

    instances = {
        "TJ-original": (tj, tj_output),
        "TJ-twist": (tj, tj_output),
        "MM-twist": (mm, lambda: np.array(mm.c, copy=True)),
        "PC-twist": (pc, lambda: int(pc.result)),
        "NN-original": (nn, lambda: _digest(*nn.result)),
        "KDE-original": (kde, lambda: _digest(kde.result)),
    }
    return {
        name: (schedule, *instances[name]) for name, schedule in BATCH_JOBS
    }


def _run_once(schedule_name: str, instance, backend: str) -> float:
    from repro.core.schedules import get_schedule

    spec = instance.make_spec()
    start = time.perf_counter()
    get_schedule(schedule_name).run(spec, backend=backend)
    return time.perf_counter() - start


def _write_outputs(path: str, record: dict, outputs: dict) -> None:
    matrices = {}
    for name, values in outputs.items():
        for index, value in enumerate(values):
            if isinstance(value, np.ndarray):
                matrices[f"{name}.{index}"] = value
                values[index] = {"npz": f"{name}.{index}"}
    record["outputs"] = outputs
    if matrices:
        np.savez(path + ".npz", **matrices)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m harness.solver")
    parser.add_argument("mode", choices=("setup", "run", "reference"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--jobs", default=None, help="comma-separated job names")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument(
        "--min-rounds", type=int, default=1,
        help="warm rounds to make even when --seconds is already spent",
    )
    args = parser.parse_args(argv)
    sizes = TINY_BATCH if args.sizes == "tiny" else BatchSizes()

    recorder = None
    missing: list[str] = []
    if args.trace_dir:
        from harness.layers import install_all
        from harness.spans import SpanRecorder

        recorder = SpanRecorder(out_dir=args.trace_dir)
        missing = install_all(recorder)

    jobs = build_jobs(args.seed, sizes)
    if args.jobs:
        wanted = args.jobs.split(",")
        jobs = {name: jobs[name] for name in wanted}
    record: dict = {"jobs": {}, "missing_targets": missing}
    outputs: dict[str, list] = {name: [] for name in jobs}

    if args.mode == "reference":
        for name, (schedule, instance, output) in jobs.items():
            seconds = _run_once(schedule, instance, "recursive")
            outputs[name].append(output())
            record["jobs"][name] = {"reference_s": seconds}
        _write_outputs(args.out, record, outputs)
        _emit("done")
        return 0

    from repro.core.backend_select import choose_backend

    for name, (schedule, instance, _) in jobs.items():
        start = time.perf_counter()
        choice = choose_backend(instance.make_spec(), schedule)
        record["jobs"][name] = {
            "schedule": schedule,
            "backend": choice.backend,
            "order": choice.order,
            "reason": choice.reason,
            "choose_s": time.perf_counter() - start,
        }
    _emit("ready")
    if args.mode == "setup":
        return 0

    started = time.perf_counter()
    for name, (schedule, instance, output) in jobs.items():
        record["jobs"][name]["cold_s"] = _run_once(schedule, instance, "auto")
        record["jobs"][name]["warm_s"] = []
        outputs[name].append(output())
    rounds = 0
    while rounds < args.min_rounds or (
        time.perf_counter() - started < args.seconds
        and time.perf_counter() - started < ROUND_BUDGET_S
    ):
        for name, (schedule, instance, output) in jobs.items():
            record["jobs"][name]["warm_s"].append(
                _run_once(schedule, instance, "auto")
            )
            outputs[name].append(output())
        rounds += 1
    record["timed_s"] = time.perf_counter() - started
    record["rounds"] = rounds

    from harness.hostinfo import peak_rss_mb

    record["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        recorder.dump(f"{args.trace_dir}/spans-main.json")
    _write_outputs(args.out, record, outputs)
    _emit("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
