"""The serving load generator at a small, test-sized scale.

One real end-to-end scenario (hundreds of users, not 10^5) proves the
measurement plumbing: the payload carries every field the trajectory
table and the CI gate read, the bit-identity check really ran over
every user, and the report renders.  The full-scale numbers live in
the checked-in ``BENCH_serve.json``.
"""

import json

import pytest

from repro.bench.serve_load import (
    DEFAULT_RUNS,
    LoadSpec,
    RunConfig,
    framing_microbench,
    generate_workload,
    run_serve_load,
    run_serve_suite,
    write_serve_json,
)
from repro.serve.protocol import CountQuery, KNNQuery, NNQuery

SMALL = LoadSpec(
    references=512,
    users=200,
    serial_sample=50,
    concurrency=64,
    hot_set=16,
)


class TestGenerateWorkload:
    def test_deterministic_mix_with_a_hot_set(self):
        from repro.spaces.points import clustered_points

        references = clustered_points(128, clusters=8, spread=0.1, seed=1)
        first = generate_workload(SMALL, references)
        second = generate_workload(SMALL, references)
        assert first == second
        assert len(first) == SMALL.users
        kinds = {type(query) for query in first}
        assert kinds == {NNQuery, KNNQuery, CountQuery}
        # The hot set makes queries recur — the skew the admission
        # batcher's dedup is built for.
        assert len(set(first)) < len(first)


class TestRunServeLoad:
    def test_payload_carries_the_contract_fields(self, tmp_path):
        report, payload = run_serve_load(SMALL)
        assert payload["experiment"] == "serve"
        assert payload["users"] == SMALL.users
        assert payload["references"] == SMALL.references
        assert payload["bit_identical"] is True
        assert payload["speedup"] > 0
        assert payload["qps"] > 0
        for percentile in ("p50", "p99", "mean", "max"):
            assert payload["latency_ms"][percentile] >= 0
        assert payload["serial"]["sampled"] == SMALL.serial_sample
        assert payload["serial"]["mean_ms"] > 0
        assert payload["backends"] == {
            kind: {"backend": "frontier", "order": "preorder"}
            for kind in ("nn", "knn", "count")
        }
        assert payload["batcher"]["ticks"] >= 1
        assert "query_leaf_size" not in payload["config"]

        rendered = report.render()
        assert "queries/sec (batched service)" in rendered
        assert "bit-identical vs oracle" in rendered

        path = write_serve_json(payload, str(tmp_path / "BENCH_serve.json"))
        with open(path) as handle:
            assert json.load(handle) == payload


SUITE_RUNS = (
    RunConfig("baseline-pr8", dedup=False, adaptive_hold=False),
    RunConfig("dedup-2shards", shards=2),
)


class TestRunServeSuite:
    def test_suite_payload_carries_the_gate_contract(self, tmp_path):
        report, payload = run_serve_suite(SMALL, runs=SUITE_RUNS)
        assert payload["experiment"] == "serve_suite"
        assert payload["workload"]["users"] == SMALL.users
        assert payload["workload"]["references"] == SMALL.references
        assert payload["workload"]["distinct_queries"] < SMALL.users
        assert payload["bit_identical"] is True
        assert set(payload["runs"]) == {"baseline-pr8", "dedup-2shards"}

        baseline = payload["runs"]["baseline-pr8"]
        candidate = payload["runs"]["dedup-2shards"]
        # The baseline run really ran the PR 8 configuration...
        assert baseline["config"] == {
            "shards": 1,
            "dedup": False,
            "adaptive_hold": False,
            "workers": 0,
            "max_batch": 256,
            "max_hold_ms": 2.0,
        }
        assert baseline["dedup_hit_rate"] == 0.0
        # ...and the candidate folded duplicates over two shards.
        assert candidate["config"]["shards"] == 2
        assert candidate["dedup_hit_rate"] > 0.0
        assert candidate["batcher"]["dedup_folded"] > 0
        for run in payload["runs"].values():
            assert run["bit_identical"] is True
            assert run["qps"] > 0
            assert run["speedup"] > 0
            for percentile in ("p50", "p99", "mean", "max"):
                assert run["latency_ms"][percentile] >= 0
            assert set(run["backends"]) == {"nn", "knn", "count"}

        comparison = payload["comparison"]
        assert comparison["baseline"] == "baseline-pr8"
        assert comparison["candidate"] == "dedup-2shards"
        assert comparison["qps_gain"] > 0
        assert payload["serial"]["sampled"] == SMALL.serial_sample

        framing = payload["framing"]
        assert framing["messages"] > 0
        assert framing["binary"]["bytes"] < framing["json"]["bytes"]

        rendered = report.render()
        assert "baseline-pr8" in rendered
        assert "dedup-2shards" in rendered
        assert "framing" in rendered

        path = write_serve_json(payload, str(tmp_path / "suite.json"))
        with open(path) as handle:
            assert json.load(handle) == payload

    def test_default_runs_are_the_checked_in_sweep(self):
        assert [run.name for run in DEFAULT_RUNS] == [
            "baseline-pr8",
            "dedup",
            "dedup-2shards",
        ]
        assert DEFAULT_RUNS[0].dedup is False
        assert DEFAULT_RUNS[0].adaptive_hold is False
        assert DEFAULT_RUNS[-1].shards == 2


class TestFramingMicrobench:
    def test_measures_verified_round_trips(self):
        queries = [
            NNQuery((0.25, 0.75)),
            KNNQuery((0.1, 0.2), 3),
            CountQuery((0.5, 0.5), 0.3),
        ]
        from repro.serve.service import QueryService, ServiceConfig
        from repro.spaces.points import clustered_points

        references = clustered_points(64, clusters=4, spread=0.1, seed=3)
        with QueryService(references, ServiceConfig()) as service:
            results = service.execute_serial(queries)
        stats = framing_microbench(queries, results, messages=3)
        assert stats["messages"] == 3
        assert stats["json"]["round_trip_us"] > 0
        assert stats["binary"]["round_trip_us"] > 0
        assert stats["bytes_ratio"] > 1.0

    def test_tampered_results_fail_the_round_trip_check(self):
        queries = [NNQuery((0.25, 0.75))]
        with pytest.raises(Exception):
            framing_microbench(queries, ["not a result"], messages=1)
