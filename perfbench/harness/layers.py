"""The traced layers: which entry points get spans, and what they add up to.

:data:`TARGETS` names every wrapped function by module path; the span
name's prefix is the layer (the module) it belongs to.
:func:`install_all` installs them in the current process and
:func:`layer_metrics` folds the recorded spans into the per-layer
metrics of ``BENCHMARK.json``.  A layer a workload does not use reports
0 (``core.parallel_exec`` while serving, ``serve.*`` in ``batch``):
that is the "predict no change" side of each layer.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Optional

from harness import spans as sp
from harness.stats import percentile, self_times


def _published_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    arrays = args[0] if args else kwargs["arrays"]
    return float(sum(getattr(a, "nbytes", 0) for a in arrays.values()))


def _result_size(args: tuple, kwargs: dict, result: Any) -> float:
    return float(getattr(result, "size", 0))


def _second_arg(args: tuple, kwargs: dict, result: Any) -> Any:
    return args[1] if len(args) > 1 else None


_RUNNERS = ("original", "interchanged", "twisted")

#: (function, span name, per-call measurement).
TARGETS: list[tuple[str, str, Optional[Any]]] = [
    ("repro.core.schedules:Schedule.run", "core.schedules.run", None),
    ("repro.core.backend_select:choose_backend", "core.backend_select.choose", None),
    ("repro.core.backend_select:probe_features", "core.backend_select.probe", None),
    # Internal: runs only when choose_backend misses its memo.
    (
        "repro.core.backend_select:_choose_backend_uncached",
        "core.backend_select.uncached",
        None,
    ),
    ("repro.transform.lint.backend:lint_spec", "transform.lint.conformance", None),
    ("repro.transform.lint.lower:lint_lower", "transform.lint.lower", None),
    ("repro.transform.lint.locality:lint_locality", "transform.lint.locality", None),
    ("repro.spaces.soa:to_soa", "spaces.soa.pack", None),
    ("repro.spaces.soa:export_shared_arrays", "spaces.soa.publish", _published_bytes),
    ("repro.core.parallel_exec:run_parallel", "core.parallel_exec.run", None),
    (
        "repro.core.parallel_exec:check_outer_independence",
        "core.parallel_exec.witness",
        None,
    ),
    ("repro.spaces.soa:reduce_sum_columns", "core.parallel_exec.reduce", None),
    ("repro.core.compiled:compiled_artifact", "core.compiled.artifact", None),
    *[
        (f"repro.core.compiled:run_{r}_compiled", "core.compiled.run", None)
        for r in _RUNNERS
    ],
    *[(f"repro.core.soa_exec:run_{r}_soa", "core.soa_exec.run", None) for r in _RUNNERS],
    *[(f"repro.core.batched:run_{r}_batched", "core.batched.run", None) for r in _RUNNERS],
    ("repro.dualtree.kdtree:build_kdtree", "dualtree.build", None),
    ("repro.dualtree.batch:block_distances", "dualtree.block_distances", _result_size),
    ("repro.serve.protocol:decode_query", "serve.protocol.decode", None),
    ("repro.serve.protocol:encode_result", "serve.protocol.encode", None),
    ("repro.serve.framing:unpack_query", "serve.framing.unpack", None),
    ("repro.serve.framing:pack_result", "serve.framing.pack", None),
    ("repro.serve.batcher:AdmissionBatcher.submit", "serve.batcher.submit", _second_arg),
    ("repro.serve.service:QueryService.__init__", "serve.service.init", None),
    ("repro.serve.service:QueryService.execute_batch", "serve.service.tick", _second_arg),
    ("repro.serve.rules:ServeKnnRules.finalize", "serve.rules.knn_finalize", None),
    ("repro.serve.shards:gather_columns", "serve.shards.gather", None),
]

#: (function, counter name, events per call from its arguments): for
#: functions called too often to time without distorting the run.
COUNTERS: list[tuple[str, str, Any]] = [
    ("repro.dualtree.batch:point_prune_row", "dualtree.prune_rows", lambda a, k: 1),
    # The serve rules' per-leaf-pair distances.
    (
        "repro.dualtree.rules:_pairwise_distances",
        "dualtree.pairwise_evals",
        lambda a, k: len(a[0]) * len(a[1]),
    ),
    (
        "repro.core.batched:BatchDispatcher.flush",
        "core.batched.blocks",
        lambda a, k: 1 if a[0]._os else 0,
    ),
]

#: Per-layer metrics: name -> (unit, better).  Every workload reports all.
PER_LAYER: dict[str, tuple[str, str]] = {
    "transform.lint.conformance_s": ("s", "lower"),
    "transform.lint.lower_s": ("s", "lower"),
    "transform.lint.locality_s": ("s", "lower"),
    "transform.lint.calls": ("count", "lower"),
    "core.backend_select.choose_s": ("s", "lower"),
    "core.backend_select.choose_calls": ("count", "lower"),
    "core.backend_select.probe_calls": ("count", "lower"),
    "core.backend_select.memo_hit_ratio": ("ratio", "higher"),
    "spaces.soa.pack_s": ("s", "lower"),
    "spaces.soa.pack_calls": ("count", "lower"),
    "spaces.soa.publish_s": ("s", "lower"),
    "spaces.soa.publish_bytes": ("B", "lower"),
    "core.parallel_exec.run_s": ("s", "lower"),
    "core.parallel_exec.pool_start_s": ("s", "lower"),
    "core.parallel_exec.witness_s": ("s", "lower"),
    "core.parallel_exec.reduce_s": ("s", "lower"),
    "core.parallel_exec.runs": ("count", "lower"),
    "core.compiled.run_s": ("s", "lower"),
    "core.compiled.artifact_s": ("s", "lower"),
    "core.compiled.positions_s": ("s", "lower"),
    "core.compiled.position_cache_hit_ratio": ("ratio", "higher"),
    "core.soa_exec.run_s": ("s", "lower"),
    "core.batched.run_s": ("s", "lower"),
    "core.batched.blocks": ("count", "lower"),
    "core.schedules.first_run_extra_s": ("s", "lower"),
    "dualtree.build_s": ("s", "lower"),
    "dualtree.block_distances_s": ("s", "lower"),
    "dualtree.distance_evals": ("count", "lower"),
    "dualtree.prune_rows": ("count", "lower"),
    "serve.protocol.decode_us": ("us", "lower"),
    "serve.protocol.encode_us": ("us", "lower"),
    "serve.protocol.calls": ("count", "lower"),
    "serve.framing.unpack_us": ("us", "lower"),
    "serve.framing.pack_us": ("us", "lower"),
    "serve.framing.calls": ("count", "lower"),
    "serve.front.loop_lag_p99_ms": ("ms", "lower"),
    "serve.batcher.wait_p50_ms": ("ms", "lower"),
    "serve.batcher.wait_p99_ms": ("ms", "lower"),
    "serve.batcher.ticks": ("count", "lower"),
    "serve.batcher.mean_tick": ("count", "higher"),
    "serve.batcher.mean_distinct_tick": ("count", "higher"),
    "serve.batcher.dedup_hit_ratio": ("ratio", "higher"),
    "serve.service.init_s": ("s", "lower"),
    "serve.service.tick_p50_ms": ("ms", "lower"),
    "serve.service.tick_p99_ms": ("ms", "lower"),
    "serve.service.tick_self_ms": ("ms", "lower"),
    "serve.service.outer_build_ms": ("ms", "lower"),
    "serve.service.execute_ms": ("ms", "lower"),
    "serve.rules.verdict_cache_hit_ratio": ("ratio", "higher"),
    "serve.rules.knn_finalize_ms": ("ms", "lower"),
    "serve.shards.gather_ms": ("ms", "lower"),
}


def install_all(recorder: sp.SpanRecorder) -> list[str]:
    """Install every span, counter and probe; return the targets missing."""
    from concurrent.futures import ProcessPoolExecutor

    missing = sp.install(recorder, TARGETS)
    for target, name, amount in COUNTERS:
        if not sp.install_counter(recorder, target, name, amount):
            missing.append(target)
    sp.install_first_call(
        recorder, ProcessPoolExecutor, "submit", "core.parallel_exec.pool_start"
    )
    if not _install_position_probe(recorder):
        missing.append("repro.core.compiled:_position_arrays")
    return missing


def _install_position_probe(recorder: sp.SpanRecorder) -> bool:
    """Time position-sequence generation and count its cache misses.

    A call that adds a ``position_cache_info`` entry missed the cache.
    """
    try:
        from repro.core import compiled

        original = compiled._position_arrays
        info = compiled.position_cache_info
    except (ImportError, AttributeError):
        return False
    timed = recorder.wrap("core.compiled.positions", original)

    def probe(*args, **kwargs):
        before = info()["entries"]
        try:
            return timed(*args, **kwargs)
        finally:
            recorder.count("core.compiled.position_calls")
            if info()["entries"] > before:
                recorder.count("core.compiled.position_misses")

    probe.__perfbench_original__ = original
    compiled._position_arrays = probe
    return True


def layer_metrics(
    spans: list[dict], counters: dict[str, float]
) -> dict[str, float]:
    """Fold spans and counters into the span-derived per-layer metrics.

    Batcher waits, loop lag, the server's own counters and
    ``first_run_extra_s`` are filled in by the workload; they default
    to 0 here.
    """
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    values: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        name = span["name"]
        total[name] += span["end"] - span["start"]
        calls[name] += 1
        if isinstance(span["value"], (int, float)):
            values[name] += span["value"]
        by_name[name].append(span)

    def mean_us(name: str) -> float:
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    choose = calls["core.backend_select.choose"]
    positions = counters.get("core.compiled.position_calls", 0)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        {
            "transform.lint.conformance_s": total["transform.lint.conformance"],
            "transform.lint.lower_s": total["transform.lint.lower"],
            "transform.lint.locality_s": total["transform.lint.locality"],
            "transform.lint.calls": float(
                calls["transform.lint.conformance"]
                + calls["transform.lint.lower"]
                + calls["transform.lint.locality"]
            ),
            "core.backend_select.choose_s": total["core.backend_select.choose"],
            "core.backend_select.choose_calls": float(choose),
            "core.backend_select.probe_calls": float(calls["core.backend_select.probe"]),
            "core.backend_select.memo_hit_ratio": (
                1.0 - calls["core.backend_select.uncached"] / choose if choose else 0.0
            ),
            "spaces.soa.pack_s": total["spaces.soa.pack"],
            "spaces.soa.pack_calls": float(calls["spaces.soa.pack"]),
            "spaces.soa.publish_s": total["spaces.soa.publish"],
            "spaces.soa.publish_bytes": values["spaces.soa.publish"],
            "core.parallel_exec.run_s": total["core.parallel_exec.run"],
            "core.parallel_exec.pool_start_s": total["core.parallel_exec.pool_start"],
            "core.parallel_exec.witness_s": total["core.parallel_exec.witness"],
            "core.parallel_exec.reduce_s": total["core.parallel_exec.reduce"],
            "core.parallel_exec.runs": float(calls["core.parallel_exec.run"]),
            "core.compiled.run_s": total["core.compiled.run"],
            "core.compiled.artifact_s": total["core.compiled.artifact"],
            "core.compiled.positions_s": total["core.compiled.positions"],
            "core.compiled.position_cache_hit_ratio": (
                1.0 - counters.get("core.compiled.position_misses", 0) / positions
                if positions
                else 0.0
            ),
            "core.soa_exec.run_s": total["core.soa_exec.run"],
            "core.batched.run_s": total["core.batched.run"],
            "core.batched.blocks": float(counters.get("core.batched.blocks", 0)),
            "dualtree.build_s": total["dualtree.build"],
            "dualtree.block_distances_s": total["dualtree.block_distances"],
            "dualtree.distance_evals": values["dualtree.block_distances"]
            + counters.get("dualtree.pairwise_evals", 0),
            "dualtree.prune_rows": float(counters.get("dualtree.prune_rows", 0)),
            "serve.protocol.decode_us": mean_us("serve.protocol.decode"),
            "serve.protocol.encode_us": mean_us("serve.protocol.encode"),
            "serve.protocol.calls": float(
                calls["serve.protocol.decode"] + calls["serve.protocol.encode"]
            ),
            "serve.framing.unpack_us": mean_us("serve.framing.unpack"),
            "serve.framing.pack_us": mean_us("serve.framing.pack"),
            "serve.framing.calls": float(
                calls["serve.framing.unpack"] + calls["serve.framing.pack"]
            ),
            "serve.service.init_s": total["serve.service.init"],
        }
    )
    ticks = by_name["serve.service.tick"]
    if ticks:
        metrics.update(_tick_metrics(spans, ticks, total, calls))
    return metrics


def _tick_metrics(
    spans: list[dict],
    ticks: list[dict],
    total: dict[str, float],
    calls: dict[str, int],
) -> dict[str, float]:
    """Per-tick service times: distribution, self time, and stages."""
    durations = [1e3 * (t["end"] - t["start"]) for t in ticks]
    tick_traces = {t["trace"] for t in ticks}
    in_ticks = [s for s in spans if s["trace"] in tick_traces]
    own = self_times(in_ticks)
    stage: dict[str, float] = defaultdict(float)
    for span in in_ticks:
        stage[span["name"]] += span["end"] - span["start"]
    n = len(ticks)

    def mean_ms(name: str) -> float:
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    return {
        "serve.service.tick_p50_ms": statistics.median(durations),
        "serve.service.tick_p99_ms": percentile(durations, 99.0),
        "serve.service.tick_self_ms": 1e3
        * sum(own[t["id"]] for t in ticks)
        / n,
        "serve.service.outer_build_ms": 1e3 * stage["dualtree.build"] / n,
        "serve.service.execute_ms": 1e3 * stage["core.schedules.run"] / n,
        "serve.rules.knn_finalize_ms": mean_ms("serve.rules.knn_finalize"),
        "serve.shards.gather_ms": mean_ms("serve.shards.gather"),
    }


def batcher_waits_ms(recorder: sp.SpanRecorder) -> list[float]:
    """From each ``submit`` to the start of the tick that answered it.

    A tick's span value is its query list; a submission is answered by
    the first tick holding an equal query that starts after it.
    """
    import bisect

    starts: dict[Any, list[float]] = defaultdict(list)
    for span in recorder.spans:
        if span[sp.NAME] == "serve.service.tick" and span[sp.VALUE]:
            for query in span[sp.VALUE]:
                starts[query].append(span[sp.START])
    for times in starts.values():
        times.sort()
    waits = []
    for span in recorder.spans:
        if span[sp.NAME] != "serve.batcher.submit":
            continue
        times = starts.get(span[sp.VALUE])
        if not times:
            continue
        index = bisect.bisect_left(times, span[sp.START])
        if index < len(times) and times[index] <= span[sp.END]:
            waits.append(1e3 * (times[index] - span[sp.START]))
    return waits
