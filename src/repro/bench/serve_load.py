"""Load generator for the serving layer (``python -m repro.bench serve``).

Drives 10^5–10^6 simulated users against a resident
:class:`~repro.serve.service.QueryService` through the asyncio
:class:`~repro.serve.batcher.AdmissionBatcher` — the exact production
admission path, minus the TCP framing (measured separately by the
framing micro-bench below and the integration tests; the serving claim
is about execution, not socket I/O).  Each simulated user submits one
query drawn from a configurable kind mix with a hot set:
``hot_fraction`` of users re-ask one of ``hot_set`` popular queries,
the rest ask unique ones — the skew that makes the intra-tick dedup
earn its keep.

Two entry points:

* :func:`run_serve_load` — one scenario under one configuration (the
  unit the tests exercise);
* :func:`run_serve_suite` — the checked-in ``BENCH_serve.json``
  producer: the same workload swept across admission configurations
  (PR 8 baseline with dedup/adaptive hold off, dedup on, dedup + N
  shards), sharing one serial baseline and one oracle, plus a wire
  framing micro-bench (JSON vs binary encode/decode cost and bytes).

Correctness is not sampled: the batched result of **every** user in
**every** run is bit-compared against the serial oracle of its
distinct query (equal queries have equal oracles — the oracle is
deterministic), and the run fails loudly on any mismatch.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.bench.reporting import ExperimentReport
from repro.errors import ReproError
from repro.serve.batcher import AdmissionBatcher
from repro.serve.protocol import (
    CountQuery,
    KNNQuery,
    NNQuery,
    Query,
)
from repro.serve.service import QueryService, ServiceConfig

#: Default knobs of the checked-in BENCH_serve.json run.
DEFAULT_REFERENCES = 16384
DEFAULT_USERS = 100_000
DEFAULT_JSON_PATH = "BENCH_serve.json"

#: Kind mix (nn, knn, count) the simulated users draw from.
DEFAULT_MIX = (0.4, 0.2, 0.4)

#: Messages per side in the framing micro-bench.
FRAMING_MESSAGES = 2000


@dataclass(frozen=True)
class LoadSpec:
    """One load-generation scenario."""

    references: int = DEFAULT_REFERENCES
    users: int = DEFAULT_USERS
    hot_fraction: float = 0.7
    hot_set: int = 64
    mix: tuple[float, float, float] = DEFAULT_MIX
    k: int = 5
    radius: float = 0.3
    seed: int = 1
    concurrency: int = 2048
    serial_sample: int = 1500


@dataclass(frozen=True)
class RunConfig:
    """One admission configuration in the suite sweep."""

    name: str
    shards: int = 1
    dedup: bool = True
    adaptive_hold: bool = True
    workers: int = 0


#: The checked-in sweep: the PR 8 baseline (static hold, no dedup,
#: one shard), dedup alone, and dedup + 2 shards.
DEFAULT_RUNS = (
    RunConfig("baseline-pr8", dedup=False, adaptive_hold=False),
    RunConfig("dedup", shards=1),
    RunConfig("dedup-2shards", shards=2),
)


def generate_workload(
    spec: LoadSpec, references: np.ndarray
) -> list[Query]:
    """The full, deterministic user query sequence for one scenario.

    Query points are fresh clustered draws (same distribution as the
    references, never the same points); hot users resample from the
    first ``hot_set`` of them.
    """
    from repro.spaces.points import clustered_points

    rng = np.random.default_rng(spec.seed)
    distinct = clustered_points(
        max(spec.hot_set, spec.users),
        clusters=24,
        spread=0.05,
        seed=spec.seed + 1,
    )
    kinds = rng.choice(3, size=spec.users, p=list(spec.mix))
    hot = rng.random(spec.users) < spec.hot_fraction
    hot_pick = rng.integers(0, spec.hot_set, size=spec.users)
    queries: list[Query] = []
    for index in range(spec.users):
        row = hot_pick[index] if hot[index] else index
        point = tuple(float(value) for value in distinct[row])
        kind = int(kinds[index])
        if kind == 0:
            queries.append(NNQuery(point))
        elif kind == 1:
            queries.append(KNNQuery(point, spec.k))
        else:
            queries.append(CountQuery(point, spec.radius))
    return queries


async def _drive(
    batcher: AdmissionBatcher,
    queries: Sequence[Query],
    concurrency: int,
) -> tuple[list, np.ndarray, float]:
    """Submit every user query; returns (results, latencies, wall).

    ``concurrency`` long-lived simulator tasks pull user indices from
    one shared iterator — bounded task count regardless of workload
    length, with ``concurrency`` queries in flight at steady state.
    """
    results: list = [None] * len(queries)
    latencies = np.zeros(len(queries))
    indices = iter(range(len(queries)))

    async def simulator() -> None:
        for index in indices:
            start = time.perf_counter()
            results[index] = await batcher.submit(queries[index])
            latencies[index] = time.perf_counter() - start

    wall_start = time.perf_counter()
    await asyncio.gather(
        *(simulator() for _ in range(min(concurrency, len(queries))))
    )
    await batcher.drain()
    wall = time.perf_counter() - wall_start
    return results, latencies, wall


def _drive_scenario(
    service: QueryService,
    config: ServiceConfig,
    spec: LoadSpec,
    queries: Sequence[Query],
    dedup: bool = True,
    adaptive_hold: bool = True,
) -> tuple[list, np.ndarray, float, AdmissionBatcher]:
    """One full load run through a fresh batcher over ``service``."""
    batcher_holder: dict = {}

    async def scenario():
        batcher = AdmissionBatcher(
            service.execute_batch,
            max_batch=config.max_batch,
            max_hold_s=config.max_hold_s,
            dedup=dedup,
            adaptive_hold=adaptive_hold,
        )
        batcher_holder["batcher"] = batcher
        return await _drive(batcher, queries, spec.concurrency)

    results, latencies, wall = asyncio.run(scenario())
    return results, latencies, wall, batcher_holder["batcher"]


def _distinct_map(queries: Sequence[Query]) -> dict[Query, list[int]]:
    distinct: dict[Query, list[int]] = {}
    for index, query in enumerate(queries):
        distinct.setdefault(query, []).append(index)
    return distinct


def _check_identity(
    results: Sequence, oracle: Sequence, distinct: dict[Query, list[int]]
) -> None:
    """Bit-identity of every user's answer vs its distinct oracle."""
    mismatches = 0
    for answer, indices in zip(oracle, distinct.values()):
        for index in indices:
            if results[index] != answer:
                mismatches += 1
    if mismatches:
        raise ReproError(
            f"serving bit-identity violated: {mismatches} of "
            f"{sum(len(v) for v in distinct.values())} batched answers "
            "differ from the serial oracle"
        )


def _host() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _latency_summary(latencies: np.ndarray) -> dict:
    return {
        "p50": float(np.percentile(latencies, 50) * 1000),
        "p99": float(np.percentile(latencies, 99) * 1000),
        "mean": float(latencies.mean() * 1000),
        "max": float(latencies.max() * 1000),
    }


def run_serve_load(
    spec: LoadSpec = LoadSpec(),
    config: Optional[ServiceConfig] = None,
    service: Optional[QueryService] = None,
    dedup: bool = True,
    adaptive_hold: bool = True,
) -> tuple[ExperimentReport, dict]:
    """Run one scenario; returns (report, BENCH_serve payload).

    Raises :class:`~repro.errors.ReproError` on any batched-vs-serial
    result mismatch — bit-identity is an acceptance criterion, not a
    statistic.
    """
    from repro.spaces.points import clustered_points

    config = config or ServiceConfig()
    own_service = service is None
    if service is None:
        references = clustered_points(
            spec.references, clusters=24, spread=0.05, seed=spec.seed
        )
        service = QueryService(references, config)
    try:
        queries = generate_workload(spec, service.references)
        results, latencies, wall, batcher = _drive_scenario(
            service, config, spec, queries, dedup, adaptive_hold
        )

        # Serial baseline: per-query cost sampled uniformly.
        rng = np.random.default_rng(spec.seed + 2)
        sample_size = min(spec.serial_sample, len(queries))
        sample = rng.choice(len(queries), size=sample_size, replace=False)
        serial_start = time.perf_counter()
        service.execute_serial([queries[index] for index in sample])
        serial_seconds = time.perf_counter() - serial_start
        serial_mean = serial_seconds / sample_size
        serial_qps = 1.0 / serial_mean

        distinct = _distinct_map(queries)
        oracle = service.execute_serial(list(distinct))
        _check_identity(results, oracle, distinct)

        qps = len(queries) / wall
        speedup = qps / serial_qps
        payload = {
            "experiment": "serve",
            "host": _host(),
            "references": int(len(service.references)),
            "users": len(queries),
            "distinct_queries": len(distinct),
            "hot_fraction": spec.hot_fraction,
            "hot_set": spec.hot_set,
            "mix": {
                "nn": spec.mix[0],
                "knn": spec.mix[1],
                "count": spec.mix[2],
            },
            "config": {
                "leaf_size": config.leaf_size,
                "max_batch": config.max_batch,
                "max_hold_ms": config.max_hold_s * 1000.0,
                "workers": config.workers,
                "shards": config.shards,
                "dedup": dedup,
                "adaptive_hold": adaptive_hold,
            },
            "backends": service.service_stats()["backends"],
            "latency_ms": _latency_summary(latencies),
            "qps": qps,
            "wall_seconds": wall,
            "serial": {
                "sampled": sample_size,
                "mean_ms": serial_mean * 1000.0,
                "qps": serial_qps,
            },
            "speedup": speedup,
            "bit_identical": True,
            "batcher": batcher.batcher_stats(),
        }
        report = _report(payload)
        return report, payload
    finally:
        if own_service:
            service.close()


def framing_microbench(
    queries: Sequence[Query],
    results: Sequence,
    messages: int = FRAMING_MESSAGES,
) -> dict:
    """Encode+decode cost and wire bytes: JSON lines vs binary frames.

    Measures the per-message serialization tax of each framing over a
    real query/result sample — the part of the wire cost the server
    pays per request regardless of socket behavior.  Both paths are
    verified to round-trip the identical objects before timing.
    """
    from repro.serve import framing as fr
    from repro.serve.protocol import (
        decode_query,
        decode_result,
        encode_query,
        encode_result,
    )

    queries = list(queries)[:messages]
    results = list(results)[:messages]

    for query, result in zip(queries, results):
        assert decode_query(json.loads(json.dumps(encode_query(query)))) == (
            query
        )
        assert fr.unpack_query(fr.pack_query(query)) == query
        assert decode_result(
            json.loads(json.dumps(encode_result(result)))
        ) == result
        assert fr.unpack_result(fr.pack_result(result)) == result

    json_bytes = 0
    start = time.perf_counter()
    for query, result in zip(queries, results):
        line = json.dumps(encode_query(query)).encode() + b"\n"
        json_bytes += len(line)
        decode_query(json.loads(line))
        line = json.dumps(encode_result(result)).encode() + b"\n"
        json_bytes += len(line)
        decode_result(json.loads(line))
    json_seconds = time.perf_counter() - start

    binary_bytes = 0
    start = time.perf_counter()
    for query, result in zip(queries, results):
        frame = fr.encode_frame(fr.T_QUERY, 1, fr.pack_query(query))
        binary_bytes += len(frame)
        fr.unpack_query(fr.decode_frame(frame[4:])[2])
        frame = fr.encode_frame(fr.T_RESULT, 1, fr.pack_result(result))
        binary_bytes += len(frame)
        fr.unpack_result(fr.decode_frame(frame[4:])[2])
    binary_seconds = time.perf_counter() - start

    count = len(queries)
    return {
        "messages": count,
        "json": {
            "round_trip_us": 1e6 * json_seconds / max(1, count),
            "bytes": json_bytes,
        },
        "binary": {
            "round_trip_us": 1e6 * binary_seconds / max(1, count),
            "bytes": binary_bytes,
        },
        "bytes_ratio": (
            json_bytes / binary_bytes if binary_bytes else float("inf")
        ),
        "speedup": (
            json_seconds / binary_seconds if binary_seconds else float("inf")
        ),
    }


def run_serve_suite(
    spec: LoadSpec = LoadSpec(),
    base_config: Optional[ServiceConfig] = None,
    runs: Sequence[RunConfig] = DEFAULT_RUNS,
) -> tuple[ExperimentReport, dict]:
    """Sweep one workload across admission configurations.

    All runs share the identical deterministic workload, one serial
    baseline measurement, and one distinct-query oracle (computed on
    the first service — ``execute_serial`` always answers over the
    full unsharded tree, so the oracle is configuration-independent).
    Every run's every answer is bit-compared against that oracle.
    """
    from repro.spaces.points import clustered_points

    base_config = base_config or ServiceConfig()
    references = clustered_points(
        spec.references, clusters=24, spread=0.05, seed=spec.seed
    )
    queries = generate_workload(spec, references)
    distinct = _distinct_map(queries)

    serial_info: Optional[dict] = None
    oracle: Optional[list] = None
    run_payloads: dict[str, dict] = {}
    for run in runs:
        config = replace(
            base_config, shards=run.shards, workers=run.workers
        )
        service = QueryService(references, config)
        try:
            if oracle is None:
                rng = np.random.default_rng(spec.seed + 2)
                sample_size = min(spec.serial_sample, len(queries))
                sample = rng.choice(
                    len(queries), size=sample_size, replace=False
                )
                serial_start = time.perf_counter()
                service.execute_serial(
                    [queries[index] for index in sample]
                )
                serial_seconds = time.perf_counter() - serial_start
                serial_info = {
                    "sampled": int(sample_size),
                    "mean_ms": 1000.0 * serial_seconds / sample_size,
                    "qps": sample_size / serial_seconds,
                }
                oracle = service.execute_serial(list(distinct))
            results, latencies, wall, batcher = _drive_scenario(
                service,
                config,
                spec,
                queries,
                dedup=run.dedup,
                adaptive_hold=run.adaptive_hold,
            )
            _check_identity(results, oracle, distinct)
            qps = len(queries) / wall
            stats = batcher.batcher_stats()
            run_payloads[run.name] = {
                "config": {
                    "shards": run.shards,
                    "dedup": run.dedup,
                    "adaptive_hold": run.adaptive_hold,
                    "workers": run.workers,
                    "max_batch": config.max_batch,
                    "max_hold_ms": config.max_hold_s * 1000.0,
                },
                "qps": qps,
                "wall_seconds": wall,
                "speedup": qps * serial_info["mean_ms"] / 1000.0,
                "latency_ms": _latency_summary(latencies),
                "dedup_hit_rate": stats["dedup_hit_rate"],
                "bit_identical": True,
                "batcher": stats,
                "backends": {
                    kind: entry["backend"]
                    for kind, entry in service.service_stats()[
                        "backends"
                    ].items()
                },
            }
        finally:
            service.close()

    assert serial_info is not None and oracle is not None
    framing = framing_microbench(list(distinct), oracle)

    baseline_name = runs[0].name
    candidate_name = runs[-1].name
    baseline = run_payloads[baseline_name]
    candidate = run_payloads[candidate_name]
    comparison = {
        "baseline": baseline_name,
        "candidate": candidate_name,
        "qps_gain": candidate["qps"] / baseline["qps"],
        "p99_gain": (
            baseline["latency_ms"]["p99"] / candidate["latency_ms"]["p99"]
            if candidate["latency_ms"]["p99"] > 0
            else float("inf")
        ),
    }
    payload = {
        "experiment": "serve_suite",
        "host": _host(),
        "workload": {
            "references": int(len(references)),
            "users": len(queries),
            "distinct_queries": len(distinct),
            "hot_fraction": spec.hot_fraction,
            "hot_set": spec.hot_set,
            "mix": {
                "nn": spec.mix[0],
                "knn": spec.mix[1],
                "count": spec.mix[2],
            },
            "concurrency": spec.concurrency,
            "seed": spec.seed,
        },
        "serial": serial_info,
        "runs": run_payloads,
        "framing": framing,
        "comparison": comparison,
        "bit_identical": all(
            run["bit_identical"] for run in run_payloads.values()
        ),
    }
    return _suite_report(payload), payload


def _report(payload: dict) -> ExperimentReport:
    report = ExperimentReport(
        title=(
            f"Serving: {payload['users']:,} users over "
            f"{payload['references']:,} reference points"
        ),
        columns=["metric", "value"],
    )
    latency = payload["latency_ms"]
    report.add_row("queries/sec (batched service)", round(payload["qps"], 1))
    report.add_row("p50 latency (ms)", round(latency["p50"], 3))
    report.add_row("p99 latency (ms)", round(latency["p99"], 3))
    report.add_row("mean latency (ms)", round(latency["mean"], 3))
    report.add_row(
        "serial baseline (ms/query)",
        round(payload["serial"]["mean_ms"], 3),
    )
    report.add_row("serial queries/sec", round(payload["serial"]["qps"], 1))
    report.add_row("throughput speedup", round(payload["speedup"], 2))
    report.add_row(
        "mean admitted batch",
        payload["batcher"]["mean_tick_size"],
    )
    report.add_row(
        "dedup hit rate",
        f"{100.0 * payload['batcher']['dedup_hit_rate']:.1f}%",
    )
    report.add_row(
        "bit-identical vs oracle",
        "yes" if payload["bit_identical"] else "NO",
    )
    backends = ", ".join(
        f"{kind}={entry['backend']}"
        for kind, entry in payload["backends"].items()
    )
    report.add_note(f"tick backends: {backends}")
    report.add_note(
        f"serial baseline sampled on {payload['serial']['sampled']} "
        "queries (per-query cost is workload-length independent)"
    )
    return report


def _suite_report(payload: dict) -> ExperimentReport:
    workload = payload["workload"]
    report = ExperimentReport(
        title=(
            f"Serving sweep: {workload['users']:,} users over "
            f"{workload['references']:,} reference points "
            f"({workload['distinct_queries']:,} distinct)"
        ),
        columns=[
            "run",
            "shards",
            "qps",
            "speedup",
            "p50 ms",
            "p99 ms",
            "dedup hit",
            "bit-identical",
        ],
    )
    for name, run in payload["runs"].items():
        report.add_row(
            name,
            run["config"]["shards"],
            round(run["qps"], 1),
            round(run["speedup"], 2),
            round(run["latency_ms"]["p50"], 3),
            round(run["latency_ms"]["p99"], 3),
            f"{100.0 * run['dedup_hit_rate']:.1f}%",
            "yes" if run["bit_identical"] else "NO",
        )
    serial = payload["serial"]
    report.add_note(
        f"serial baseline: {serial['mean_ms']:.3f} ms/query "
        f"({serial['qps']:.1f} qps, sampled {serial['sampled']})"
    )
    comparison = payload["comparison"]
    report.add_note(
        f"{comparison['candidate']} vs {comparison['baseline']}: "
        f"{comparison['qps_gain']:.2f}x qps, "
        f"{comparison['p99_gain']:.2f}x p99"
    )
    framing = payload["framing"]
    report.add_note(
        f"framing ({framing['messages']} msgs): json "
        f"{framing['json']['round_trip_us']:.1f}us/msg vs binary "
        f"{framing['binary']['round_trip_us']:.1f}us/msg "
        f"({framing['speedup']:.2f}x), bytes ratio "
        f"{framing['bytes_ratio']:.2f}x"
    )
    return report


def write_serve_json(
    payload: dict, path: str = DEFAULT_JSON_PATH
) -> str:
    """Write the serving payload as indented JSON; returns the path."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path
