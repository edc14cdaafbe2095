"""Boot a real query server and verify it bit-for-bit — CI smoke.

Starts ``python -m repro.serve`` as a subprocess with a chosen shard
and pool-worker count, drives it over TCP with the blocking client in a
chosen wire framing, and compares every answer against an in-process
serial oracle over the same deterministic reference set.  The workload
deliberately repeats queries so the intra-tick dedup path is
exercised; the exit code is the verdict.

    python examples/serve_smoke.py --shards 2 --framing binary
    python examples/serve_smoke.py --workers 2 --shards 2
"""

from __future__ import annotations

import argparse
import os
import socket
import subprocess
import sys

from repro.serve.client import ServeClient, wait_for_server
from repro.serve.protocol import CountQuery, KNNQuery, NNQuery
from repro.serve.service import QueryService, ServiceConfig
from repro.spaces.points import clustered_points


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def sample_queries(n: int, duplicates: int) -> list:
    """A mixed-kind workload whose tail repeats the head ``duplicates``
    times — the repeats are what the dedup counters should fold."""
    points = clustered_points(n, clusters=6, spread=0.07, seed=17)
    queries = []
    for index in range(n):
        point = tuple(float(value) for value in points[index])
        kind = index % 3
        if kind == 0:
            queries.append(NNQuery(point))
        elif kind == 1:
            queries.append(KNNQuery(point, 5))
        else:
            queries.append(CountQuery(point, 0.3))
    return queries + queries[:duplicates]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="server pool workers (0 = in-process execution)",
    )
    parser.add_argument(
        "--framing", choices=("json", "binary"), default="json"
    )
    parser.add_argument("--references", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--queries", type=int, default=60)
    parser.add_argument("--duplicates", type=int, default=30)
    args = parser.parse_args(argv)

    port = free_port()
    env = dict(os.environ)
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--port",
            str(port),
            "--references",
            str(args.references),
            "--seed",
            str(args.seed),
            "--shards",
            str(args.shards),
            "--workers",
            str(args.workers),
            "--max-hold-ms",
            "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        probe = wait_for_server("127.0.0.1", port, timeout=60)
        if probe is None:
            print(f"server never came up:\n{process.communicate()[0]}")
            return 1
        probe.close()

        queries = sample_queries(args.queries, args.duplicates)
        with ServeClient(
            "127.0.0.1", port, framing=args.framing
        ) as client:
            results = client.query_many(queries)
            stats = client.stats()

        references = clustered_points(
            args.references, clusters=24, spread=0.05, seed=args.seed
        )
        with QueryService(references, ServiceConfig()) as oracle_service:
            oracle = oracle_service.execute_serial(queries)

        mismatches = sum(
            1 for got, want in zip(results, oracle) if got != want
        )
        batcher = stats["batcher"]
        print(
            f"serve smoke: shards={args.shards} workers={args.workers} "
            f"framing={args.framing} "
            f"queries={len(queries)} mismatches={mismatches} "
            f"dedup_folded={batcher['dedup_folded']} "
            f"executed={batcher['executed']}"
        )
        if mismatches:
            print("FAILED: answers diverge from the serial oracle")
            return 1
        if stats["shards"]["count"] != args.shards:
            print(
                f"FAILED: server reports {stats['shards']['count']} "
                f"shard(s), expected {args.shards}"
            )
            return 1
        if stats["workers"] != args.workers:
            print(
                f"FAILED: server reports {stats['workers']} pool "
                f"worker(s), expected {args.workers}"
            )
            return 1
        if args.duplicates > 0 and batcher["dedup_folded"] == 0:
            # Pipelined duplicates may still straddle tick boundaries,
            # but a workload ending in 30 exact repeats folding nothing
            # means dedup is off or broken.
            print("FAILED: no duplicate queries were folded")
            return 1
        print("OK: bit-identical to the serial oracle")
        return 0
    finally:
        try:
            with ServeClient("127.0.0.1", port, timeout=10) as client:
                client.shutdown()
            process.wait(timeout=30)
        except Exception:
            process.kill()
            process.wait()


if __name__ == "__main__":
    sys.exit(main())
