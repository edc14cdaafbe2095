"""``python -m repro.serve`` — the JSON-lines TCP query server.

Wire protocol (one JSON object per line, newline-terminated)::

    -> {"id": 1, "op": "query", "query": {"kind": "nn", "point": [..]}}
    <- {"id": 1, "ok": true, "result": {"kind": "nn", ...}}
    -> {"id": 2, "op": "stats"}      # service + batcher counters
    -> {"id": 3, "op": "ping"}       # liveness
    -> {"id": 4, "op": "shutdown"}   # drain and exit

Responses may arrive out of order (each admission tick resolves
independently); match on ``id``.  A connection may opt into binary
framing with one JSON hello (``{"op": "hello", "framing": "binary"}``)
before switching — see :mod:`repro.serve.framing`; JSON stays the
default.  The reference set is synthetic — clustered points,
deterministic in ``--seed`` — or loaded from an ``.npy`` file via
``--references-file``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

from repro.serve import framing as fr
from repro.serve.batcher import AdmissionBatcher
from repro.serve.protocol import decode_query, encode_result
from repro.serve.service import QueryService, ServiceConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Persistent dual-tree query service (JSON lines over TCP).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--references",
        type=int,
        default=65536,
        help="synthetic reference-set size (default 65536)",
    )
    parser.add_argument(
        "--references-file",
        default=None,
        help="load the reference set from an .npy file instead",
    )
    parser.add_argument("--clusters", type=int, default=24)
    parser.add_argument("--spread", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--leaf-size", type=int, default=ServiceConfig.leaf_size
    )
    parser.add_argument(
        "--max-batch", type=int, default=ServiceConfig.max_batch
    )
    parser.add_argument(
        "--max-hold-ms",
        type=float,
        default=ServiceConfig.max_hold_s * 1000.0,
        help="admission hold latency cap, milliseconds",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool workers (0 = in-process execution)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=ServiceConfig.shards,
        help="reference-set shards a tick is scattered across",
    )
    parser.add_argument(
        "--static-hold",
        action="store_true",
        help="disable the adaptive hold controller (fixed --max-hold-ms)",
    )
    parser.add_argument(
        "--no-dedup",
        action="store_true",
        help="disable intra-tick duplicate-query folding",
    )
    return parser


def _load_references(args: argparse.Namespace) -> np.ndarray:
    if args.references_file:
        return np.load(args.references_file)
    from repro.spaces.points import clustered_points

    return clustered_points(
        args.references,
        clusters=args.clusters,
        spread=args.spread,
        seed=args.seed,
    )


def _collect_stats(service: QueryService, batcher: AdmissionBatcher) -> dict:
    stats = dict(service.service_stats())
    stats["batcher"] = batcher.batcher_stats()
    return stats


async def _handle_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    service: QueryService,
    batcher: AdmissionBatcher,
    stop: asyncio.Event,
) -> None:
    async def respond(payload: dict) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def answer(request_id, query_payload) -> None:
        try:
            query = decode_query(query_payload)
            service.check_query(query)
            result = await batcher.submit(query)
            await respond(
                {"id": request_id, "ok": True, "result": encode_result(result)}
            )
        except ConnectionError:  # pragma: no cover - client went away
            pass
        except Exception as exc:
            try:
                await respond(
                    {"id": request_id, "ok": False, "error": str(exc)}
                )
            except ConnectionError:  # pragma: no cover
                pass

    tasks: set[asyncio.Task] = set()
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                await respond({"id": None, "ok": False, "error": str(exc)})
                continue
            request_id = request.get("id")
            op = request.get("op")
            if op == "query":
                task = asyncio.ensure_future(
                    answer(request_id, request.get("query", {}))
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif op == "hello":
                framing = request.get("framing", "json")
                if framing not in fr.FRAMINGS:
                    await respond(
                        {
                            "id": request_id,
                            "ok": False,
                            "error": f"unknown framing {framing!r}; "
                            f"known: {list(fr.FRAMINGS)}",
                        }
                    )
                    continue
                # Acknowledge in JSON, then (for binary) switch the
                # remainder of this connection to length-prefixed
                # frames — but only after in-flight JSON answers land.
                await respond(
                    {"id": request_id, "ok": True, "framing": framing}
                )
                if framing == "binary":
                    if tasks:
                        await asyncio.gather(
                            *tasks, return_exceptions=True
                        )
                        tasks.clear()
                    await _handle_binary(
                        reader, writer, service, batcher, stop
                    )
                    return
            elif op == "stats":
                await respond(
                    {
                        "id": request_id,
                        "ok": True,
                        "stats": _collect_stats(service, batcher),
                    }
                )
            elif op == "ping":
                await respond({"id": request_id, "ok": True})
            elif op == "shutdown":
                await respond({"id": request_id, "ok": True})
                stop.set()
                break
            else:
                await respond(
                    {
                        "id": request_id,
                        "ok": False,
                        "error": f"unknown op {op!r}",
                    }
                )
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()


async def _handle_binary(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    service: QueryService,
    batcher: AdmissionBatcher,
    stop: asyncio.Event,
) -> None:
    """The post-hello frame loop; mirrors the JSON ops one-to-one."""

    async def send(frame_type: int, request_id: int, body: bytes = b"") -> None:
        # One write per frame keeps concurrent answers atomic on the wire.
        writer.write(fr.encode_frame(frame_type, request_id, body))
        await writer.drain()

    async def answer(request_id: int, body: bytes) -> None:
        try:
            query = fr.unpack_query(body)
            service.check_query(query)
            result = await batcher.submit(query)
            await send(fr.T_RESULT, request_id, fr.pack_result(result))
        except ConnectionError:  # pragma: no cover - client went away
            pass
        except Exception as exc:
            try:
                await send(fr.T_ERROR, request_id, str(exc).encode())
            except ConnectionError:  # pragma: no cover
                pass

    tasks: set[asyncio.Task] = set()
    try:
        while True:
            try:
                frame = await fr.read_frame_async(reader)
            except Exception:  # corrupt stream: drop the connection
                break
            if frame is None:
                break
            frame_type, request_id, body = frame
            if frame_type == fr.T_QUERY:
                task = asyncio.ensure_future(answer(request_id, body))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif frame_type == fr.T_STATS:
                await send(
                    fr.T_STATS_REPLY,
                    request_id,
                    json.dumps(_collect_stats(service, batcher)).encode(),
                )
            elif frame_type == fr.T_PING:
                await send(fr.T_OK, request_id)
            elif frame_type == fr.T_SHUTDOWN:
                await send(fr.T_OK, request_id)
                stop.set()
                break
            else:
                await send(
                    fr.T_ERROR,
                    request_id,
                    f"unknown frame type 0x{frame_type:02x}".encode(),
                )
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()


async def serve(args: argparse.Namespace) -> int:
    references = _load_references(args)
    config = ServiceConfig(
        leaf_size=args.leaf_size,
        max_batch=args.max_batch,
        max_hold_s=args.max_hold_ms / 1000.0,
        workers=args.workers,
        shards=args.shards,
    )
    service = QueryService(references, config)
    batcher = AdmissionBatcher(
        service.execute_batch,
        max_batch=config.max_batch,
        max_hold_s=config.max_hold_s,
        dedup=not args.no_dedup,
        adaptive_hold=not args.static_hold,
    )
    stop = asyncio.Event()

    async def handler(reader, writer):
        await _handle_connection(reader, writer, service, batcher, stop)

    server = await asyncio.start_server(handler, args.host, args.port)
    address = ", ".join(
        str(sock.getsockname()) for sock in server.sockets or ()
    )
    print(
        f"serving {len(references)} reference points on {address} "
        f"(max_batch={config.max_batch}, "
        f"max_hold={config.max_hold_s * 1000:.1f}ms, "
        f"shards={config.shards}, dedup={batcher.dedup}, "
        f"adaptive_hold={batcher.adaptive_hold})",
        flush=True,
    )
    try:
        async with server:
            await stop.wait()
            await batcher.drain()
    finally:
        service.close()
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(serve(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 130


if __name__ == "__main__":
    sys.exit(main())
