"""Unit tests for the auto-backend perf-floor CI gate."""

import json

from repro.bench.perf_floor import (
    DEFAULT_FLOOR,
    check_compiled_floor,
    check_parallel_floor,
    check_perf_floor,
    check_serve_floor,
    main,
)


def entry(benchmark="TJ", schedule="twist", **overrides):
    base = {
        "benchmark": benchmark,
        "schedule": schedule,
        "results_match": True,
        "timings": {
            "recursive": 1.0,
            "batched": 0.5,
            "soa": 0.25,
            "auto": 0.26,
        },
    }
    base.update(overrides)
    return base


def payload(*entries):
    return {"experiment": "wallclock_backends", "results": list(entries)}


class TestCheckPerfFloor:
    def test_passes_when_auto_tracks_best(self):
        assert check_perf_floor(payload(entry())) == []

    def test_flags_auto_falling_below_floor(self):
        slow = entry(
            timings={"recursive": 1.0, "soa": 0.25, "auto": 0.5}
        )
        violations = check_perf_floor(payload(slow))
        assert len(violations) == 1
        assert "TJ/twist" in violations[0]
        assert "soa" in violations[0]

    def test_floor_is_a_ratio_of_the_best_single_backend(self):
        # auto at 80% of best passes a 0.75 floor but fails 0.9.
        borderline = entry(
            timings={"recursive": 1.0, "soa": 0.4, "auto": 0.5}
        )
        assert check_perf_floor(payload(borderline), floor=0.75) == []
        assert check_perf_floor(payload(borderline), floor=DEFAULT_FLOOR)

    def test_result_mismatch_always_violates(self):
        violations = check_perf_floor(payload(entry(results_match=False)))
        assert violations == ["TJ/twist: backend results mismatch"]

    def test_retired_backend_timings_are_ignored(self):
        # Checked-in payloads still time the deleted linked-node engine
        # as "batched"; only backends that exist count as best single.
        retired = entry(
            timings={"recursive": 1.0, "batched": 0.1, "soa": 0.25, "auto": 0.26}
        )
        assert check_perf_floor(payload(retired)) == []

    def test_entries_without_auto_are_skipped(self):
        filtered = entry(timings={"recursive": 1.0, "soa": 0.25})
        assert check_perf_floor(payload(filtered)) == []

    def test_empty_payload_passes(self):
        assert check_perf_floor({}) == []

    def test_refused_backend_timings_are_ignored(self):
        # A refused backend is recorded as None; the floor compares
        # auto against the backends that actually ran.
        refused = entry(
            timings={
                "recursive": 1.0,
                "soa": 0.25,
                "compiled": None,
                "auto": 0.26,
            },
            refused={"compiled": "not lowerable"},
        )
        assert check_perf_floor(payload(refused)) == []


def compiled_entry(benchmark="TJ", schedule="original", **overrides):
    base = {
        "benchmark": benchmark,
        "schedule": schedule,
        "results_match": True,
        "timings": {"recursive": 1.0, "soa": 0.25, "compiled": 0.1},
    }
    base.update(overrides)
    return base


def compiled_payload(*entries, cpu_count=8, numba=True):
    return {
        "experiment": "wallclock_backends",
        "host": {"cpu_count": cpu_count, "numba": numba},
        "results": list(entries),
    }


class TestCheckCompiledFloor:
    def test_passes_when_compiled_clears_the_floor(self):
        violations, skips = check_compiled_floor(
            compiled_payload(compiled_entry(), compiled_entry("MM"))
        )
        assert violations == []
        assert skips == []

    def test_slow_compiled_violates(self):
        violations, _ = check_compiled_floor(
            compiled_payload(
                compiled_entry(
                    timings={"recursive": 1.0, "soa": 0.25, "compiled": 0.24}
                )
            )
        )
        assert len(violations) == 1
        assert "1.04x" in violations[0]

    def test_refusal_on_a_floor_benchmark_always_violates(self):
        # Even on a starved host: TJ/MM regressing below 'lowerable'
        # is a correctness-of-gating failure, not a speed failure.
        violations, _ = check_compiled_floor(
            compiled_payload(
                compiled_entry(
                    timings={"recursive": 1.0, "soa": 0.25, "compiled": None},
                    refused={"compiled": "verdict regressed"},
                ),
                cpu_count=1,
                numba=False,
            )
        )
        assert len(violations) == 1
        assert "refused" in violations[0]

    def test_auto_off_compiled_on_a_floor_benchmark_always_violates(self):
        # A deterministic check on the choice, applied on every host.
        off = compiled_entry(
            auto_choice="parallel", auto_reason="proven-parallel plan"
        )
        on = compiled_entry("MM", auto_choice="compiled")
        elsewhere = compiled_entry("KDE", auto_choice="soa")
        violations, _ = check_compiled_floor(
            compiled_payload(off, on, elsewhere, cpu_count=1, numba=False)
        )
        assert len(violations) == 1
        assert "TJ/original" in violations[0]
        assert "'parallel'" in violations[0]

    def test_starved_host_skips_speed_but_not_correctness(self):
        slow = compiled_entry(
            timings={"recursive": 1.0, "soa": 0.25, "compiled": 0.3}
        )
        violations, skips = check_compiled_floor(
            compiled_payload(slow, cpu_count=1, numba=False)
        )
        assert violations == []
        assert len(skips) == 1 and "not importable" in skips[0]
        mismatch = compiled_entry(results_match=False)
        violations, _ = check_compiled_floor(
            compiled_payload(mismatch, cpu_count=1, numba=False)
        )
        assert violations == ["TJ/original: backend results mismatch"]

    def test_non_floor_benchmarks_carry_no_speed_number(self):
        slow_gram = compiled_entry(
            "KDE", timings={"recursive": 1.0, "soa": 0.2, "compiled": 0.4}
        )
        assert check_compiled_floor(compiled_payload(slow_gram)) == ([], [])

    def test_host_overrides_beat_the_payload(self):
        slow = compiled_entry(
            timings={"recursive": 1.0, "soa": 0.25, "compiled": 0.3}
        )
        violations, _ = check_compiled_floor(
            compiled_payload(slow, cpu_count=1, numba=False),
            host_cpu_count=8,
            host_numba=True,
        )
        assert len(violations) == 1


def parallel_run(engine="process", workers=4, speedup=2.1, match=True):
    return {
        "engine": engine,
        "workers": workers,
        "seconds": 0.05,
        "speedup_vs_serial_soa": speedup,
        "parallel_efficiency": round(speedup / workers, 3),
        "results_match": match,
    }


def parallel_entry(benchmark="TJ", schedule="original", runs=None):
    return {
        "benchmark": benchmark,
        "schedule": schedule,
        "serial_soa_s": 0.1,
        "runs": [parallel_run()] if runs is None else runs,
    }


def parallel_payload(*entries, cpu_count=8):
    return {
        "experiment": "wallclock_parallel",
        "host": {"cpu_count": cpu_count},
        "results": list(entries),
    }


class TestCheckParallelFloor:
    def test_passes_when_speedup_clears_the_floor(self):
        violations, skips = check_parallel_floor(
            parallel_payload(parallel_entry(), parallel_entry("MM"))
        )
        assert violations == []
        assert skips == []

    def test_slow_four_worker_process_row_violates(self):
        violations, _ = check_parallel_floor(
            parallel_payload(
                parallel_entry(runs=[parallel_run(speedup=1.1)])
            )
        )
        assert len(violations) == 1
        assert "1.10x" in violations[0]

    def test_undersized_host_skips_speed_but_not_correctness(self):
        payload = parallel_payload(
            parallel_entry(runs=[parallel_run(speedup=0.4)]),
            cpu_count=1,
        )
        violations, skips = check_parallel_floor(payload)
        assert violations == []
        assert len(skips) == 1 and "1 core" in skips[0]
        bad = parallel_payload(
            parallel_entry(
                runs=[parallel_run(speedup=0.4, match=False)]
            ),
            cpu_count=1,
        )
        violations, _ = check_parallel_floor(bad)
        assert len(violations) == 1
        assert "diverge" in violations[0]

    def test_result_mismatch_violates_on_every_benchmark(self):
        payload = parallel_payload(
            parallel_entry(
                "NN", runs=[parallel_run("thread", 2, 0.7, match=False)]
            )
        )
        violations, _ = check_parallel_floor(payload)
        assert len(violations) == 1
        assert "NN/original" in violations[0]

    def test_irregular_benchmarks_carry_no_speed_floor(self):
        payload = parallel_payload(
            parallel_entry("PC", runs=[parallel_run(speedup=0.5)])
        )
        assert check_parallel_floor(payload) == ([], [])

    def test_twist_entries_only_gate_correctness(self):
        payload = parallel_payload(
            parallel_entry(schedule="twist", runs=[parallel_run(speedup=0.5)])
        )
        assert check_parallel_floor(payload) == ([], [])


def serve_run(
    qps=1000.0, p99=5.0, dedup=True, hit_rate=0.4, identical=True, shards=1
):
    return {
        "config": {"shards": shards, "dedup": dedup},
        "qps": qps,
        "latency_ms": {"p50": 1.0, "p99": p99},
        "dedup_hit_rate": hit_rate,
        "bit_identical": identical,
    }


def serve_payload(cpu_count=8, **runs):
    if not runs:
        runs = {
            "baseline-pr8": serve_run(
                qps=800.0, p99=8.0, dedup=False, hit_rate=0.0
            ),
            "dedup-2shards": serve_run(qps=1200.0, p99=5.0, shards=2),
        }
    names = list(runs)
    return {
        "experiment": "serve_suite",
        "host": {"cpu_count": cpu_count},
        "runs": runs,
        "comparison": {"baseline": names[0], "candidate": names[-1]},
    }


class TestCheckServeFloor:
    def test_passes_when_candidate_beats_baseline(self):
        assert check_serve_floor(serve_payload()) == ([], [])

    def test_empty_payload_violates(self):
        violations, _ = check_serve_floor({"runs": {}})
        assert violations == ["serve payload carries no runs"]

    def test_bit_identity_always_gates(self):
        payload = serve_payload(
            cpu_count=1,
            baseline=serve_run(dedup=False, hit_rate=0.0),
            candidate=serve_run(identical=False),
        )
        violations, _ = check_serve_floor(payload)
        assert len(violations) == 1
        assert "bit-identical" in violations[0]

    def test_zero_dedup_hit_rate_always_gates(self):
        payload = serve_payload(
            cpu_count=1,
            baseline=serve_run(dedup=False, hit_rate=0.0),
            candidate=serve_run(hit_rate=0.0),
        )
        violations, _ = check_serve_floor(payload)
        assert len(violations) == 1
        assert "hit rate is zero" in violations[0]

    def test_single_core_host_skips_speed_only(self):
        payload = serve_payload(
            cpu_count=1,
            baseline=serve_run(qps=2000.0, p99=1.0, dedup=False, hit_rate=0.0),
            candidate=serve_run(qps=100.0, p99=50.0),
        )
        violations, skips = check_serve_floor(payload)
        assert violations == []
        assert len(skips) == 1 and "1 core" in skips[0]

    def test_slow_candidate_violates_on_a_capable_host(self):
        payload = serve_payload(
            baseline=serve_run(qps=2000.0, p99=1.0, dedup=False, hit_rate=0.0),
            candidate=serve_run(qps=100.0, p99=50.0),
        )
        violations, skips = check_serve_floor(payload)
        assert skips == []
        assert len(violations) == 2
        assert "does not beat" in violations[0]
        assert "regresses" in violations[1]

    def test_comparison_must_name_present_runs(self):
        payload = serve_payload()
        payload["comparison"]["candidate"] = "warp-drive"
        violations, _ = check_serve_floor(payload)
        assert any("two present runs" in v for v in violations)

    def test_host_override_beats_the_payload(self):
        payload = serve_payload(
            cpu_count=1,
            baseline=serve_run(qps=2000.0, p99=1.0, dedup=False, hit_rate=0.0),
            candidate=serve_run(qps=100.0, p99=50.0),
        )
        violations, _ = check_serve_floor(payload, host_cpu_count=8)
        assert len(violations) == 2


class TestMain:
    def _write(self, tmp_path, data):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_pass_exit_code_and_summary(self, tmp_path, capsys):
        path = self._write(tmp_path, payload(entry(), entry("MM")))
        assert main(["--json", path]) == 0
        out = capsys.readouterr().out
        assert "perf floor passed" in out
        assert "all 2 checked" in out

    def test_fail_exit_code_lists_violations(self, tmp_path, capsys):
        slow = entry(timings={"recursive": 1.0, "soa": 0.2, "auto": 1.0})
        path = self._write(tmp_path, payload(slow))
        assert main(["--json", path]) == 1
        out = capsys.readouterr().out
        assert "perf floor FAILED" in out
        assert "TJ/twist" in out

    def test_floor_flag_is_honored(self, tmp_path):
        slow = entry(timings={"recursive": 1.0, "soa": 0.2, "auto": 1.0})
        path = self._write(tmp_path, payload(slow))
        assert main(["--json", path, "--floor", "0.1"]) == 0

    def test_parallel_json_is_gated_too(self, tmp_path, capsys):
        soa_path = self._write(tmp_path, payload(entry()))
        parallel_path = tmp_path / "parallel.json"
        parallel_path.write_text(
            json.dumps(
                parallel_payload(
                    parallel_entry(runs=[parallel_run(speedup=1.1)])
                )
            )
        )
        assert (
            main(
                ["--json", soa_path, "--parallel-json", str(parallel_path)]
            )
            == 1
        )
        assert "1.10x" in capsys.readouterr().out

    def test_compiled_json_is_gated_too(self, tmp_path, capsys):
        soa_path = self._write(tmp_path, payload(entry()))
        compiled_path = tmp_path / "compiled.json"
        compiled_path.write_text(
            json.dumps(
                compiled_payload(
                    compiled_entry(
                        timings={
                            "recursive": 1.0,
                            "soa": 0.25,
                            "compiled": 0.24,
                        }
                    )
                )
            )
        )
        assert (
            main(
                ["--json", soa_path, "--compiled-json", str(compiled_path)]
            )
            == 1
        )
        assert "1.04x" in capsys.readouterr().out

    def test_compiled_json_starved_host_skips(self, tmp_path, capsys):
        soa_path = self._write(tmp_path, payload(entry()))
        compiled_path = tmp_path / "compiled.json"
        compiled_path.write_text(
            json.dumps(
                compiled_payload(
                    compiled_entry(
                        timings={
                            "recursive": 1.0,
                            "soa": 0.25,
                            "compiled": 0.3,
                        }
                    ),
                    cpu_count=1,
                    numba=False,
                )
            )
        )
        assert (
            main(
                ["--json", soa_path, "--compiled-json", str(compiled_path)]
            )
            == 0
        )
        assert "skip" in capsys.readouterr().out

    def test_serve_json_is_gated_too(self, tmp_path, capsys):
        soa_path = self._write(tmp_path, payload(entry()))
        serve_path = tmp_path / "serve.json"
        serve_path.write_text(
            json.dumps(
                serve_payload(
                    baseline=serve_run(
                        qps=2000.0, p99=1.0, dedup=False, hit_rate=0.0
                    ),
                    candidate=serve_run(qps=100.0, p99=50.0),
                )
            )
        )
        assert (
            main(["--json", soa_path, "--serve-json", str(serve_path)]) == 1
        )
        assert "does not beat" in capsys.readouterr().out

    def test_serve_json_pass_reports_run_count(self, tmp_path, capsys):
        soa_path = self._write(tmp_path, payload(entry()))
        serve_path = tmp_path / "serve.json"
        serve_path.write_text(json.dumps(serve_payload()))
        assert (
            main(["--json", soa_path, "--serve-json", str(serve_path)]) == 0
        )
        assert "serve floor checked 2 run(s)" in capsys.readouterr().out

    def test_parallel_json_host_aware_pass(self, tmp_path, capsys):
        soa_path = self._write(tmp_path, payload(entry()))
        parallel_path = tmp_path / "parallel.json"
        parallel_path.write_text(
            json.dumps(
                parallel_payload(
                    parallel_entry(runs=[parallel_run(speedup=0.5)]),
                    cpu_count=2,
                )
            )
        )
        assert (
            main(
                ["--json", soa_path, "--parallel-json", str(parallel_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "host-aware skip" in out
