"""Summary statistics of the benchmark: pure functions, no I/O.

* :func:`tail_percentile` — the highest percentile that still has at
  least :data:`TAIL_SAMPLES` samples beyond it (a failed request is an
  infinite latency, so failures push the tail up, never out);
* :func:`percentile` — nearest-rank percentile on a sample list;
* :func:`self_times` — a span's duration minus the part of it that its
  child spans cover;
* :func:`check_metric_name` — the metric-name pattern.
"""

from __future__ import annotations

import math
import re
import statistics
from collections.abc import Iterable, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

#: Allowed metric names (and at most 64 characters, starting with an
#: alphanumeric).
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``.

    The value at rank ``ceil(q/100 * n)`` of the sorted samples, so
    exactly ``n - rank`` samples lie beyond it.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th."""
    return n - max(1, math.ceil(q / 100.0 * n - 1e-9))


def tail_percentile(n: int, tail: int = TAIL_SAMPLES) -> float | None:
    """The highest percentile with at least ``tail`` of ``n`` samples beyond.

    ``None`` when ``n <= tail``: no percentile has enough samples
    beyond it.  With n = 1000 this is exactly the 99th.
    """
    if n <= tail:
        return None
    return 100.0 * (n - tail) / n


def latency_summary(
    latencies: Iterable[float], failures: int = 0
) -> dict[str, float | int | None]:
    """Median, p99 and the tail percentile of one latency sample set.

    Each failure joins the samples as an infinite latency.  ``p99`` is
    ``None`` unless at least :data:`TAIL_SAMPLES` samples lie beyond
    it (1000 samples or more).
    """
    samples = list(latencies) + [math.inf] * failures
    n = len(samples)
    if n == 0:
        raise ValueError("latency summary of no samples")
    tail_q = tail_percentile(n)
    return {
        "samples": n,
        "failures": failures,
        "p50": statistics.median(samples),
        "p99": percentile(samples, 99.0) if beyond(n, 99.0) >= TAIL_SAMPLES else None,
        "tail_q": tail_q,
        "tail": percentile(samples, tail_q) if tail_q is not None else None,
    }


def gmean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values or min(values) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are dicts with ``id``, ``parent`` (0 for a root), ``start``
    and ``end``.  Child intervals are clipped to the parent's, and
    overlapping children (threads) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"]:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(start, c_start), min(end, c_end))
            for c_start, c_end in children.get(span["id"], ())
        ]
        result[span["id"]] = (end - start) - covered_length(clipped)
    return result
