#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` makes a separate traced run and reports the
per-layer metrics and the tracing overhead.  Human-readable detail
(host, backend picks, generator health) is printed first and saved
under ``.perfbench/results/``; the last stdout line is the result JSON.

Exit codes: 0 ok, 1 a wrong answer (result printed, ``correct`` false),
2 no program to run, 3 the run could not produce a valid result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import batch, serving  # noqa: E402
from harness.hostinfo import host_record  # noqa: E402
from harness.procs import BenchError, Context  # noqa: E402
from harness.report import result_line, traced_metrics  # noqa: E402

WORKLOADS = ("batch", "serve-hot", "serve-unique")
#: Every run ends within this many seconds.
RUN_LIMIT_S = 170.0


def run_workload(ctx: Context, workload: str) -> dict:
    if workload == "batch":
        return batch.run(ctx)
    return serving.run(ctx, hot=workload == "serve-hot", binary=workload == "serve-unique")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # A terminated run still stops its children (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(3))
    ctx = Context(
        root=ROOT,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        deadline=time.monotonic() + RUN_LIMIT_S,
    )
    try:
        outcome = run_workload(ctx, args.workload)
        if args.trace:
            outcome["layer"] = traced_metrics(outcome)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host_record(),
            "e2e": outcome["e2e"],
            **outcome["detail"],
        }
        results = ROOT / ".perfbench" / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (results / name).write_text(json.dumps(detail, indent=1, default=str))
        print(json.dumps(detail, indent=1, default=str))
        if outcome.get("invalid"):
            raise BenchError("invalid run: " + "; ".join(outcome["invalid"]))
        line = result_line(outcome, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        ctx.close()
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
