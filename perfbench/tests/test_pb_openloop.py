import asyncio
import json
import time

import numpy as np

from harness.inputs import QueryStream, ServeSizes
from harness.serving import Connection


async def _instant_server(reader, writer):
    """Answers every query line at once with a count of zero."""
    while line := await reader.readline():
        request = json.loads(line)
        answer = {"id": request["id"], "ok": True, "result": {"kind": "count", "count": 0}}
        writer.write(json.dumps(answer).encode() + b"\n")
    writer.close()


def test_open_loop_times_requests_from_their_scheduled_send():
    """A stall in the generator still counts against the requests it delays."""

    async def scenario():
        server = await asyncio.start_server(_instant_server, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        stream = QueryStream(1, ServeSizes(references=64), hot=False)
        conn = Connection(reader, writer, stream)
        offsets = np.arange(1, 21) * 0.02  # one request every 20 ms
        # Block the loop for 200 ms in the middle of the schedule.
        asyncio.get_running_loop().call_later(0.15, time.sleep, 0.2)
        health = await conn.open_loop(offsets, rate=50.0)
        await conn.close()
        server.close()
        await server.wait_closed()
        return conn.requests, health

    requests, health = asyncio.run(scenario())
    assert len(requests) == 20
    latencies = [r.received - r.due for r in requests.values()]
    lags = [r.sent - r.due for r in requests.values()]
    # Latency is measured from the due time, so it includes each send lag.
    assert all(lat >= lag for lat, lag in zip(latencies, lags))
    # The stall made some requests late by >= 100 ms although the server
    # answered instantly; those latencies show it.
    stalled = [lat for lat, lag in zip(latencies, lags) if lag > 0.1]
    assert stalled and min(stalled) > 0.1
    assert health["send_lag_p99_ms"] > 100.0
    assert health["rate_ratio"] < 1.0
