"""The ``batch`` workload: six jobs solved through ``backend="auto"``.

The executors and backend selection do all the work here; the serve
layers do none.  Set-up is sampled in fresh solver processes, the
timed rounds run in one more, and every output of every run is then
compared with the ``recursive`` backend's output for the same inputs
(computed in two reference processes, cached by a digest of the inputs).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

from harness.inputs import BATCH_JOBS, TINY_BATCH, BatchSizes, batch_arrays
from harness.oracle import batch_mismatch, matmul_tolerance
from harness.procs import BenchError, Context
from harness.stats import gmean

#: Fresh processes whose set-up time is sampled (the timed solver is one).
SETUP_SAMPLES = 3
#: Warm rounds per pass: a traced run's two passes make fewer each.
MIN_ROUNDS = 3
MIN_ROUNDS_TRACED = 2
#: Reference processes run side by side, after all timing is done.
REFERENCE_SPLIT = (("PC-twist",), ("TJ-original", "TJ-twist", "MM-twist", "NN-original", "KDE-original"))


def _solver_args(ctx: Context, mode: str, *extra: str) -> list[str]:
    return [
        "-m", "harness.solver", mode,
        "--seed", str(ctx.seed),
        "--sizes", "tiny" if ctx.tiny else "full",
        *extra,
    ]


def _setup_sample(ctx: Context) -> float:
    start = time.perf_counter()
    child = ctx.spawn(_solver_args(ctx, "setup"), "solver.log")
    child.event("ready", ctx.remaining())
    sample = time.perf_counter() - start
    child.wait(ctx.remaining())
    return sample


def _timed_solve(ctx: Context, name: str, trace_dir: str | None = None) -> tuple[float, dict]:
    """One ``run`` solver: (its set-up time, its record with outputs)."""
    out = str(ctx.work / f"{name}.json")
    rounds = MIN_ROUNDS_TRACED if ctx.trace else MIN_ROUNDS
    if ctx.tiny:
        rounds = 1
    extra = ["--seconds", str(ctx.pass_seconds), "--out", out, "--min-rounds", str(rounds)]
    if trace_dir:
        extra += ["--trace-dir", trace_dir]
    start = time.perf_counter()
    child = ctx.spawn(_solver_args(ctx, "run", *extra), "solver.log")
    child.event("ready", ctx.remaining())
    setup = time.perf_counter() - start
    child.event("done", ctx.remaining())
    if child.wait(ctx.remaining()) != 0:
        raise BenchError(f"solver failed: {child.tail()}")
    return setup, _load_outputs(out)


def _load_outputs(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    matrices = None
    for values in record["outputs"].values():
        for index, value in enumerate(values):
            if isinstance(value, dict) and "npz" in value:
                if matrices is None:
                    matrices = np.load(path + ".npz")
                values[index] = matrices[value["npz"]]
    return record


def _inputs_key(sizes: BatchSizes, arrays: dict[str, np.ndarray]) -> str:
    """A digest of everything the jobs are built from: the cache key."""
    hasher = hashlib.sha256(repr(sorted(sizes.__dict__.items())).encode())
    for name in sorted(arrays):
        hasher.update(name.encode())
        hasher.update(np.ascontiguousarray(arrays[name]).tobytes())
    return hasher.hexdigest()[:24]


def _reference(ctx: Context, key: str) -> dict:
    """Recursive-backend output of every job for these inputs (cached)."""
    cached = ctx.cache / f"batch-ref-{key}.json"
    if cached.exists():
        record = _load_outputs(str(cached))
        record["outputs"] = {k: v[0] for k, v in record["outputs"].items()}
        return record
    children = []
    for index, jobs in enumerate(REFERENCE_SPLIT):
        out = str(ctx.work / f"reference-{index}.json")
        child = ctx.spawn(
            _solver_args(ctx, "reference", "--jobs", ",".join(jobs), "--out", out),
            "reference.log",
        )
        children.append((child, out))
    merged: dict = {"outputs": {}, "jobs": {}}
    for child, out in children:
        child.event("done", ctx.remaining())
        if child.wait(ctx.remaining()) != 0:
            raise BenchError(f"reference solver failed: {child.tail()}")
        record = _load_outputs(out)
        merged["outputs"].update({k: v[0] for k, v in record["outputs"].items()})
        merged["jobs"].update(record["jobs"])
    _store_reference(cached, merged)
    return merged


def _store_reference(path, merged: dict) -> None:
    stored: dict = {"jobs": merged["jobs"], "outputs": {}}
    matrices = {}
    for name, value in merged["outputs"].items():
        if isinstance(value, np.ndarray):
            matrices[name] = value
            value = {"npz": name}
        stored["outputs"][name] = [value]
    if matrices:
        np.savez(str(path) + ".npz", **matrices)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored))
    tmp.replace(path)


def check_record(record: dict, reference: dict, tolerance: np.ndarray) -> tuple[int, int, list]:
    """(attempted, wrong, reasons) over every output of one solver record."""
    attempted = wrong = 0
    reasons = []
    for name, outputs in record["outputs"].items():
        for index, output in enumerate(outputs):
            attempted += 1
            why = batch_mismatch(name, output, reference["outputs"][name], tolerance)
            if why is not None:
                wrong += 1
                reasons.append(f"{name} run {index}: {why}")
    return attempted, wrong, reasons


def e2e_metrics(record: dict, setup_samples: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one solver record."""
    medians = [statistics.median(job["warm_s"]) for job in record["jobs"].values()]
    warm = [t for job in record["jobs"].values() for t in job["warm_s"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": record["peak_rss_mb"],
        "solve_gmean_s": gmean(medians),
        "solve_total_s": sum(medians),
        "sat_qps": len(warm) / sum(warm),
    }


def first_run_extra(record: dict) -> dict[str, float]:
    """Per job: cold first run minus warm median (lazy work set-up missed)."""
    return {
        name: job["cold_s"] - statistics.median(job["warm_s"])
        for name, job in record["jobs"].items()
    }


def _job_summary(record: dict) -> dict:
    return {
        name: {
            "schedule": job["schedule"],
            "backend": job["backend"],
            "order": job["order"],
            "cold_s": job["cold_s"],
            "warm_median_s": statistics.median(job["warm_s"]),
            "warm_runs": len(job["warm_s"]),
        }
        for name, job in record["jobs"].items()
    }


def run(ctx: Context) -> dict:
    """Run the workload; returns the outcome dict run.py reports."""
    sizes = TINY_BATCH if ctx.tiny else BatchSizes()
    arrays = batch_arrays(ctx.seed, sizes)
    tolerance = matmul_tolerance(arrays["mm.a"], arrays["mm.b"])
    detail: dict = {"sizes": sizes.__dict__, "jobs": [j for j, _ in BATCH_JOBS]}

    if not ctx.trace:
        samples = [_setup_sample(ctx) for _ in range(SETUP_SAMPLES - 1)]
        setup, record = _timed_solve(ctx, "solve")
        samples.append(setup)
        records = [record]
    else:
        setup, record = _timed_solve(ctx, "solve")
        samples = [setup]
        trace_dir = ctx.work / "spans"
        trace_dir.mkdir()
        traced_setup, traced = _timed_solve(ctx, "traced", str(trace_dir))
        records = [record, traced]

    reference = _reference(ctx, _inputs_key(sizes, arrays))
    attempted = wrong = 0
    reasons: list[str] = []
    for each in records:
        a, w, r = check_record(each, reference, tolerance)
        attempted, wrong = attempted + a, wrong + w
        reasons += r

    metrics = e2e_metrics(record, samples)
    detail.update(
        {
            "setup_samples_s": samples,
            "rounds": record["rounds"],
            "timed_s": record["timed_s"],
            "job_results": _job_summary(record),
            "first_run_extra_s": first_run_extra(record),
            "reference_s": {k: v["reference_s"] for k, v in reference["jobs"].items()},
            "choices": {
                name: f"{job['backend']}/{job['order']}"
                for name, job in record["jobs"].items()
            },
            "fail_frac": wrong / attempted,
            "wrong": reasons[:20],
        }
    )
    outcome = {
        "attempted": attempted,
        "failed": wrong,
        "correct": wrong == 0,
        "e2e": metrics,
        "detail": detail,
    }
    if ctx.trace:
        outcome["traced_e2e"] = e2e_metrics(traced, [traced_setup])
        outcome["trace_dir"] = str(trace_dir)
        outcome["layer_extra"] = {
            "core.schedules.first_run_extra_s": sum(first_run_extra(record).values()),
        }
        outcome["missing_targets"] = traced["missing_targets"]
        detail["traced_job_results"] = _job_summary(traced)
    return outcome
