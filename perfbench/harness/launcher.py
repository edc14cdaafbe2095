"""Traced server launcher: ``python -m harness.launcher --spans-dir D -- ARGS``.

Installs the layer spans in this process, adds an event-loop lag probe
to the server's loop, then runs ``repro.serve.__main__.main(ARGS)``
unchanged.  When the server exits, the spans, each submission's
admission wait and the loop-lag samples are written to
``D/spans-main.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from harness.layers import batcher_waits_ms, install_all
from harness.spans import SpanRecorder

#: Loop-lag probe period: the probe sleeps this long and records the overshoot.
PROBE_PERIOD_S = 0.005


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m harness.launcher")
    parser.add_argument("--spans-dir", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    recorder = SpanRecorder(out_dir=args.spans_dir)
    missing = install_all(recorder)
    from repro.serve import __main__ as server

    lags_ms: list[float] = []
    serve = server.serve

    async def probe() -> None:
        while True:
            before = time.perf_counter()
            await asyncio.sleep(PROBE_PERIOD_S)
            lags_ms.append(1e3 * (time.perf_counter() - before - PROBE_PERIOD_S))

    async def serve_with_probe(serve_namespace):
        task = asyncio.ensure_future(probe())
        try:
            return await serve(serve_namespace)
        finally:
            task.cancel()

    server.serve = serve_with_probe
    try:
        code = server.main(serve_args)
    finally:
        payload = recorder.to_json()
        payload["extra"] = {
            "batcher_waits_ms": batcher_waits_ms(recorder),
            "loop_lags_ms": lags_ms,
            "missing_targets": missing,
        }
        with open(f"{args.spans_dir}/spans-main.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
