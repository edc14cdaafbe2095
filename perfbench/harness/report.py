"""The result line: end-to-end metrics untraced, per-layer metrics traced."""

from __future__ import annotations

import glob
import json
import math
import os
import statistics

from harness.layers import PER_LAYER, layer_metrics
from harness.procs import BenchError
from harness.spans import load_span_files
from harness.stats import check_metric_name, percentile

#: End-to-end metrics: name -> (unit, better).  Every workload reports all.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "solve_gmean_s": ("s", "lower"),
    "solve_total_s": ("s", "lower"),
    "sat_qps": ("q/s", "higher"),
}

#: Traced-run overhead per end-to-end metric (unit ratio, lower is better).
OVERHEAD = {f"trace.overhead.{name}": ("ratio", "lower") for name in END_TO_END}

#: Every per-layer metric of the traced run.
TRACED: dict[str, tuple[str, str]] = {**PER_LAYER, **OVERHEAD}


def overhead(untraced: dict[str, float], traced: dict[str, float]) -> dict[str, float]:
    """How much worse each end-to-end metric read with tracing on (0 = none)."""
    result = {}
    for name, (_, better) in END_TO_END.items():
        a, b = untraced[name], traced[name]
        result[f"trace.overhead.{name}"] = (b / a if better == "lower" else a / b) - 1.0
    return result


def traced_metrics(outcome: dict) -> dict[str, float]:
    """Per-layer metrics of a traced outcome (spans, server counters, overhead)."""
    paths = sorted(glob.glob(os.path.join(outcome["trace_dir"], "spans-*.json")))
    if not paths:
        raise BenchError("the traced run wrote no spans")
    spans, counters = load_span_files(paths)
    metrics = layer_metrics(spans, counters)
    metrics.update(outcome.get("layer_extra", {}))
    main = os.path.join(outcome["trace_dir"], "spans-main.json")
    with open(main, encoding="utf-8") as handle:
        extra = json.load(handle).get("extra", {})
    waits = extra.get("batcher_waits_ms") or []
    lags = extra.get("loop_lags_ms") or []
    if waits:
        metrics["serve.batcher.wait_p50_ms"] = statistics.median(waits)
        metrics["serve.batcher.wait_p99_ms"] = percentile(waits, 99.0)
    if lags:
        metrics["serve.front.loop_lag_p99_ms"] = percentile(lags, 99.0)
    metrics.update(overhead(outcome["e2e"], outcome["traced_e2e"]))
    outcome["detail"]["trace"] = {
        "spans": len(spans),
        "processes": len(paths),
        "batcher_wait_samples": len(waits),
        "loop_lag_samples": len(lags),
        "missing_targets": outcome.get("missing_targets", extra.get("missing_targets", [])),
        "traced_e2e": outcome["traced_e2e"],
    }
    return metrics


def result_line(outcome: dict, trace: bool) -> dict:
    """The final JSON object: correct, attempted, failed, metrics."""
    table = TRACED if trace else END_TO_END
    values = outcome["layer"] if trace else outcome["e2e"]
    metrics = {}
    for name, (unit, _) in table.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite ({value})")
        metrics[check_metric_name(name)] = {"value": value, "unit": unit}
    return {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
