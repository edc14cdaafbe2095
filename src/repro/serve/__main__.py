"""``python -m repro.serve`` — the JSON-lines TCP query server.

Wire protocol (one JSON object per line, newline-terminated)::

    -> {"id": 1, "op": "query", "query": {"kind": "nn", "point": [..]}}
    <- {"id": 1, "ok": true, "result": {"kind": "nn", ...}}
    -> {"id": 2, "op": "stats"}      # service, batcher, collector counters
    -> {"id": 3, "op": "ping"}       # liveness
    -> {"id": 4, "op": "shutdown"}   # drain and exit

Responses may arrive out of order (each admission tick resolves
independently); match on ``id``.  A connection may opt into binary
framing with one JSON hello (``{"op": "hello", "framing": "binary"}``)
before switching — see :mod:`repro.serve.framing`; JSON stays the
default.  The reference set is synthetic — clustered points,
deterministic in ``--seed`` — or loaded from an ``.npy`` file via
``--references-file``.

**The front end.**  Each connection runs one read loop for both
framings; a small codec per framing (:class:`_JsonCodec`,
:class:`_BinaryCodec`) reads requests and encodes answers.  The loop
decodes and checks each query (:meth:`QueryService.check_query`), then
admits it with :meth:`AdmissionBatcher.submit`, which returns the
result future — no task is created per request.  A done-callback
encodes the answer into the connection's buffer, each distinct result
once (the batcher resolves one result's futures consecutively), and
the buffer leaves in one ``writer.write`` per event-loop iteration, so
a tick's answers reach each connection in one write.

**Backpressure.**  Before reading the next request, the loop awaits
``drain()`` while the connection's unsent answers are above the
transport's high-water mark.  A client that stops reading stops being
admitted; the answers still owed are those of the queries already in
flight.

**Hello ordering.**  A hello is answered after the connection's
in-flight answers: they are written first, then the JSON ack, and only
then does the loop switch framing, so from the byte after the ack both
sides exchange frames.

**Start-up.**  The server imports only the tick path (the package
re-exports resolve on first use, and the serial oracle's modules load
with the oracle), builds and stages the reference tree, then calls
``gc.freeze()``: the resident objects leave the collector's
generations, so a full collection during a tick does not walk them.
``stats`` reports the frozen object count and each generation's
collections under ``gc``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
from functools import partial
from typing import Any, Optional

import numpy as np

from repro.errors import SpecError
from repro.serve import framing as fr
from repro.serve.batcher import AdmissionBatcher
from repro.serve.protocol import Query, Result, decode_query, encode_result
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
    stats["gc"] = {
        "frozen": gc.get_freeze_count(),
        "collections": [generation["collections"] for generation in gc.get_stats()],
    }
    return stats


#: A decoded request: (op, request id, body).  ``op`` is ``query``,
#: ``hello``, ``stats``, ``ping``, ``shutdown`` or ``None`` for a
#: request that gets an error reply, whose message is then the body.
Request = tuple[Optional[str], Any, Any]


def _json_line(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


class _JsonCodec:
    """Newline-delimited JSON requests and answers (the default framing)."""

    async def read(self, reader: asyncio.StreamReader) -> Optional[Request]:
        """The next request; ``None`` at end of stream."""
        line = await reader.readline()
        if not line:
            return None
        try:
            request = json.loads(line)
        except ValueError as exc:  # bad JSON or bad UTF-8
            return None, None, str(exc)
        if not isinstance(request, dict):
            return None, None, "a request must be a JSON object"
        op = request.get("op")
        request_id = request.get("id")
        if op == "query":
            return op, request_id, request.get("query", {})
        if op == "hello":
            return op, request_id, request.get("framing", "json")
        if op in ("stats", "ping", "shutdown"):
            return op, request_id, None
        return None, request_id, f"unknown op {op!r}"

    def decode(self, body: Any) -> Query:
        return decode_query(body)

    def encode(self, result: Result) -> str:
        """One result's JSON, shared by every request it answers."""
        return json.dumps(encode_result(result))

    def result(self, request_id: Any, encoded: str) -> bytes:
        if type(request_id) is int:
            rid = str(request_id)
        else:
            rid = json.dumps(request_id)
        return f'{{"id": {rid}, "ok": true, "result": {encoded}}}\n'.encode()

    def error(self, request_id: Any, message: str) -> bytes:
        return _json_line({"id": request_id, "ok": False, "error": message})

    def ok(self, request_id: Any) -> bytes:
        return _json_line({"id": request_id, "ok": True})

    def stats(self, request_id: Any, stats: dict) -> bytes:
        return _json_line({"id": request_id, "ok": True, "stats": stats})


class _BinaryCodec:
    """Length-prefixed frames (:mod:`repro.serve.framing`), after a hello."""

    #: request frame type -> op
    OPS = {
        fr.T_QUERY: "query",
        fr.T_STATS: "stats",
        fr.T_PING: "ping",
        fr.T_SHUTDOWN: "shutdown",
    }

    async def read(self, reader: asyncio.StreamReader) -> Optional[Request]:
        """The next request; ``None`` at end of stream.

        A corrupt stream raises :class:`SpecError`.
        """
        frame = await fr.read_frame_async(reader)
        if frame is None:
            return None
        frame_type, request_id, body = frame
        op = self.OPS.get(frame_type)
        if op is None:
            return None, request_id, f"unknown frame type 0x{frame_type:02x}"
        return op, request_id, body

    def decode(self, body: bytes) -> Query:
        return fr.unpack_query(body)

    def encode(self, result: Result) -> bytes:
        """One result's body, shared by every request it answers."""
        return fr.pack_result(result)

    def result(self, request_id: int, encoded: bytes) -> bytes:
        return fr.encode_frame(fr.T_RESULT, request_id, encoded)

    def error(self, request_id: int, message: str) -> bytes:
        return fr.encode_frame(fr.T_ERROR, request_id, message.encode())

    def ok(self, request_id: int) -> bytes:
        return fr.encode_frame(fr.T_OK, request_id)

    def stats(self, request_id: int, stats: dict) -> bytes:
        body = json.dumps(stats).encode()
        return fr.encode_frame(fr.T_STATS_REPLY, request_id, body)


CODECS = {"json": _JsonCodec(), "binary": _BinaryCodec()}


class _Connection:
    """One client connection's answer buffer and in-flight queries."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.transport = writer.transport
        self.loop = asyncio.get_running_loop()
        #: encoded answers (and their byte count) waiting for this
        #: iteration's single write
        self.buffer: list[bytes] = []
        self.flush_pending = False
        self.queued = 0
        #: futures of this connection's admitted queries
        self.in_flight: set[asyncio.Future] = set()
        #: (codec, result, encoding) of the last distinct result written
        self.last: tuple[Any, Any, Any] = (None, None, None)

    def send(self, data: bytes) -> None:
        """Queue bytes for the next flush (one per loop iteration)."""
        self.buffer.append(data)
        self.queued += len(data)
        if not self.flush_pending:
            self.flush_pending = True
            self.loop.call_soon(self.flush)

    def flush(self) -> None:
        """Write everything queued in one ``writer.write``."""
        self.flush_pending = False
        if self.buffer:
            data = b"".join(self.buffer)
            self.buffer.clear()
            self.queued = 0
            if not self.transport.is_closing():
                self.writer.write(data)

    def backlog(self) -> int:
        """Answer bytes not yet on the wire: queued here or in the transport."""
        return self.queued + self.transport.get_write_buffer_size()

    def admit(self, batcher: AdmissionBatcher, codec, request_id, query) -> None:
        """Submit one checked query; its answer is encoded when it lands."""
        future = batcher.submit(query)
        self.in_flight.add(future)
        future.add_done_callback(partial(self._answer, codec, request_id))

    def _answer(self, codec, request_id, future: asyncio.Future) -> None:
        self.in_flight.discard(future)
        if future.cancelled():
            return
        error = future.exception()
        if error is not None:
            self.send(codec.error(request_id, str(error)))
            return
        result = future.result()
        last_codec, last_result, encoded = self.last
        if result is not last_result or codec is not last_codec:
            # A distinct result's futures resolve consecutively, so its
            # duplicates reuse this one encoding.
            encoded = codec.encode(result)
            self.last = (codec, result, encoded)
        self.send(codec.result(request_id, encoded))

    async def settle(self) -> None:
        """Wait until every admitted query's answer is queued."""
        if self.in_flight:
            await asyncio.wait(self.in_flight)


async def _handle_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    service: QueryService,
    batcher: AdmissionBatcher,
    stop: asyncio.Event,
) -> None:
    """One connection's read loop, for both framings."""
    conn = _Connection(writer)
    codec = CODECS["json"]
    high_water = conn.transport.get_write_buffer_limits()[1]
    try:
        while True:
            if conn.backlog() > high_water:
                # The client is not reading: stop admitting its queries
                # until the transport drains.
                conn.flush()
                await writer.drain()
            try:
                request = await codec.read(reader)
            except (SpecError, ValueError):  # corrupt stream or overlong line
                break
            if request is None:
                break
            op, request_id, body = request
            if op == "query":
                try:
                    query = codec.decode(body)
                    service.check_query(query)
                except Exception as exc:  # the bad request alone fails
                    conn.send(codec.error(request_id, str(exc)))
                    continue
                conn.admit(batcher, codec, request_id, query)
            elif op == "hello":
                if body not in fr.FRAMINGS:
                    conn.send(
                        codec.error(
                            request_id,
                            f"unknown framing {body!r}; "
                            f"known: {list(fr.FRAMINGS)}",
                        )
                    )
                    continue
                # In-flight answers first, then the ack, then the switch:
                # from the byte after the ack both sides speak ``body``.
                await conn.settle()
                conn.send(_json_line({"id": request_id, "ok": True, "framing": body}))
                conn.flush()
                codec = CODECS[body]
            elif op == "stats":
                conn.send(
                    codec.stats(request_id, _collect_stats(service, batcher))
                )
            elif op == "ping":
                conn.send(codec.ok(request_id))
            elif op == "shutdown":
                conn.send(codec.ok(request_id))
                stop.set()
                break
            else:
                conn.send(codec.error(request_id, body))
    except ConnectionError:  # pragma: no cover - client went away
        pass
    finally:
        await conn.settle()
        conn.flush()
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
    # Everything built so far (the tree, its staged arrays, the loaded
    # modules) lives as long as the server: freeze it, so that a full
    # collection during a tick walks only what ticks allocate.
    gc.freeze()
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
