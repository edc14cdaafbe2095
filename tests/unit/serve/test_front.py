"""The server's read loop, in process: one write per tick, backpressure.

``_handle_connection`` runs behind a real ``asyncio`` server on an
ephemeral port, over a small :class:`QueryService`, so the tests can
count the server-side ``StreamWriter.write`` calls and read its
transport's buffer directly.  Answers are compared with the serial
oracle.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.serve import __main__ as server_main
from repro.serve import framing as fr
from repro.serve.batcher import AdmissionBatcher
from repro.serve.protocol import (
    CountQuery,
    KNNQuery,
    NNQuery,
    decode_result,
    encode_query,
)
from repro.serve.service import QueryService, ServiceConfig
from repro.spaces.points import clustered_points


@pytest.fixture(scope="module")
def service():
    references = clustered_points(2048, clusters=8, spread=0.05, seed=9)
    with QueryService(references, ServiceConfig()) as service:
        yield service


def query_points(n, seed):
    points = clustered_points(n, clusters=8, spread=0.05, seed=seed)
    return [tuple(float(value) for value in point) for point in points]


def json_request(request_id, query):
    request = {"id": request_id, "op": "query", "query": encode_query(query)}
    return json.dumps(request).encode() + b"\n"


class InProcessServer:
    """``_handle_connection`` behind ``asyncio.start_server``.

    Every server-side writer is recorded, with the payloads of its
    ``write`` calls.
    """

    def __init__(self, service, batcher, sndbuf=None):
        self.service = service
        self.batcher = batcher
        self.sndbuf = sndbuf
        self.writers = []
        self.writes = []

    async def __aenter__(self):
        async def handler(reader, writer):
            if self.sndbuf is not None:
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, self.sndbuf
                )
            writes = []
            original = writer.write

            def counted(data):
                writes.append(bytes(data))
                original(data)

            writer.write = counted
            self.writers.append(writer)
            self.writes.append(writes)
            await server_main._handle_connection(
                reader, writer, self.service, self.batcher, asyncio.Event()
            )

        self.server = await asyncio.start_server(handler, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self.server.close()
        await self.server.wait_closed()


async def read_json_answers(reader, n):
    answers = {}
    while len(answers) < n:
        message = json.loads(await reader.readline())
        answers[message["id"]] = decode_result(message["result"])
    return answers


async def read_binary_answers(reader, n):
    answers = {}
    while len(answers) < n:
        frame_type, request_id, body = await fr.read_frame_async(reader)
        assert frame_type == fr.T_RESULT
        answers[request_id] = fr.unpack_result(body)
    return answers


class TestOneWritePerTick:
    @pytest.mark.parametrize("framing", ["json", "binary"])
    def test_a_burst_answered_by_one_tick_is_one_write(
        self, service, monkeypatch, framing
    ):
        # 40 distinct points, each asked three times: one tick, 120
        # answers, 40 encodings.
        distinct = [KNNQuery(point, 4) for point in query_points(40, seed=3)]
        queries = [query for query in distinct for _ in range(3)]
        encodes = []
        owner, name = (
            (server_main, "encode_result")
            if framing == "json"
            else (fr, "pack_result")
        )
        encode = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda result: encodes.append(result) or encode(result)
        )

        async def scenario():
            # A fixed 50 ms hold and room for the whole burst: the timer
            # flushes it as one tick.
            batcher = AdmissionBatcher(
                service.execute_batch,
                max_batch=512,
                max_hold_s=0.05,
                adaptive_hold=False,
            )
            async with InProcessServer(service, batcher) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                if framing == "binary":
                    writer.write(
                        json.dumps(
                            {"id": 0, "op": "hello", "framing": "binary"}
                        ).encode()
                        + b"\n"
                    )
                    assert json.loads(await reader.readline())["ok"]
                    burst = b"".join(
                        fr.encode_frame(fr.T_QUERY, i + 1, fr.pack_query(q))
                        for i, q in enumerate(queries)
                    )
                else:
                    burst = b"".join(
                        json_request(i + 1, q) for i, q in enumerate(queries)
                    )
                before = len(server.writes[0]) if server.writes else 0
                writer.write(burst)
                await writer.drain()
                read = read_binary_answers if framing == "binary" else read_json_answers
                answers = await read(reader, len(queries))
                writes = server.writes[0][before:]
                writer.close()
                await writer.wait_closed()
                return batcher, answers, writes

        batcher, answers, writes = asyncio.run(scenario())
        assert batcher.ticks == 1
        assert len(writes) == 1
        assert len(encodes) == len(distinct)
        oracle = service.execute_serial(queries)
        assert [answers[i + 1] for i in range(len(queries))] == oracle


class TestBackpressure:
    def test_a_client_that_never_reads_stops_being_admitted(self, service):
        # Small socket buffers on both ends, so answers the client does
        # not read pile up in the server's transport, not the kernel.
        total = 10**4
        points = query_points(total, seed=4)
        queries = [NNQuery(point) for point in points]
        lines = [json_request(i + 1, q) for i, q in enumerate(queries)]

        async def scenario():
            batcher = AdmissionBatcher(service.execute_batch, max_batch=64)
            async with InProcessServer(service, batcher, sndbuf=4096) as server:
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.connect(("127.0.0.1", server.port))
                sock.settimeout(20)

                def answered():
                    writes = server.writes[0] if server.writes else []
                    return sum(payload.count(b"\n") for payload in writes)

                def push():
                    # Lockstep: the next 20 queries go out once the last
                    # ones are answered, until the answers back up and
                    # the server stops reading; the rest then go at once.
                    try:
                        for start in range(0, total, 20):
                            sock.sendall(b"".join(lines[start : start + 20]))
                            waited = time.monotonic()
                            while answered() < start + 20:
                                if time.monotonic() - waited > 0.5:
                                    stalled.set()
                                    sock.sendall(b"".join(lines[start + 20 :]))
                                    return
                                time.sleep(0.001)
                    except OSError:  # shut down while blocked
                        pass
                    finally:
                        stalled.set()

                stalled = threading.Event()
                sender = threading.Thread(target=push, daemon=True)
                sender.start()
                peak, admitted, still = 0, -1, 0
                while not stalled.is_set() or still < 40:
                    await asyncio.sleep(0.005)
                    if server.writers:
                        transport = server.writers[0].transport
                        peak = max(peak, transport.get_write_buffer_size())
                    still = still + 1 if batcher.queries == admitted else 0
                    admitted = batcher.queries
                high = transport.get_write_buffer_limits()[1]
                stats = batcher.batcher_stats()
                # A second connection is still served, exactly.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                probe = [
                    CountQuery(points[0], 0.2),
                    NNQuery(points[1]),
                    KNNQuery(points[2], 3),
                ]
                writer.write(
                    b"".join(json_request(i, q) for i, q in enumerate(probe))
                )
                lines_back = [await reader.readline() for _ in probe]
                writer.close()
                sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked sendall
                sock.close()
                sender.join(timeout=30)
                assert not sender.is_alive()
                return peak, high, stats, probe, lines_back, server.writes[0]

        peak, high, stats, probe, lines_back, writes = asyncio.run(scenario())
        assert stats["queries"] < total  # admission stopped
        # The answers queued past the mark are those of the queries
        # already in flight when it was crossed: at most the tick whose
        # answers crossed it and the one admitted while it ran.
        answer_bytes = max(
            len(line) for payload in writes for line in payload.splitlines()
        ) + 1
        assert peak <= high + 2 * stats["max_tick_size"] * answer_bytes
        answers = {}
        for line in lines_back:
            message = json.loads(line)
            answers[message["id"]] = decode_result(message["result"])
        assert [answers[i] for i in range(len(probe))] == (
            service.execute_serial(probe)
        )
