import json
import math
from pathlib import Path

import pytest

from harness.report import END_TO_END, TRACED
from harness.stats import (
    beyond,
    check_metric_name,
    latency_summary,
    percentile,
    self_times,
    tail_percentile,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == pytest.approx(99.0)
    assert tail_percentile(2000) == pytest.approx(99.5)
    assert tail_percentile(10) is None
    for n in (11, 57, 999, 1000, 4321):
        q = tail_percentile(n)
        assert beyond(n, q) >= 10
        # Any higher percentile leaves fewer than ten samples beyond.
        assert beyond(n, q + 100.0 / n) < 10


def test_p99_needs_a_thousand_samples():
    assert latency_summary(range(999))["p99"] is None
    summary = latency_summary(range(1000))
    assert summary["p99"] == 989
    assert summary["tail_q"] == pytest.approx(99.0)


def test_failures_count_as_infinite_latency():
    # Ten failures fill exactly the ten samples beyond p99: p99 stays finite.
    assert latency_summary(range(990), failures=10)["p99"] == 989
    # An eleventh failure lands on p99 itself.
    assert latency_summary(range(989), failures=11)["p99"] == math.inf
    # Half failed: the median is infinite.
    assert latency_summary([1.0, 2.0], failures=2)["p50"] == math.inf


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": 1, "parent": 0, "start": 0.0, "end": 10.0},
        # Overlapping children (two threads) are covered once: [1, 5].
        {"id": 2, "parent": 1, "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 5.0},
        # A child running past its parent is clipped to [8, 10].
        {"id": 4, "parent": 1, "start": 8.0, "end": 12.0},
        # A grandchild belongs to its own parent only.
        {"id": 5, "parent": 3, "start": 2.5, "end": 3.5},
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[5] == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["setup_s", "core.batched.run_s", "trace.overhead.sat_qps", "a-b_c.9"])
def test_metric_names_accepted(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", "lat p50", "lat/ms", "x" * 65, "réseau"])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == {"batch", "serve-hot"}
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == TRACED
    for name in [*e2e, *layers]:
        check_metric_name(name)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_completion_rate_ignores_where_the_window_cuts_a_burst():
    from harness.serving import completion_rate

    # Ticks of 100 answers every 0.25 s: 400 answers per second.
    bursts = [0.1 + 0.25 * k for k in range(40)]
    times = [t + 1e-4 * j for t in bursts for j in range(100)]
    assert completion_rate(times) == pytest.approx(400.0, rel=0.02)
    # Dropping the window's last burst barely moves the slope.
    assert completion_rate(times[:-100]) == pytest.approx(400.0, rel=0.02)
