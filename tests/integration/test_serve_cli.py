"""End-to-end serving: real server process, TCP clients, bit-identity.

Starts ``python -m repro.serve`` as a subprocess on an ephemeral port,
drives it with the blocking JSON-lines client, and checks the answers
against a local :class:`QueryService` oracle over the same
(deterministic, seed-pinned) synthetic reference set.
"""

import os
import socket
import subprocess
import sys

import pytest

from repro.dualtree.kdtree import build_kdtree
from repro.serve import framing as fr
from repro.serve.client import ServeClient, wait_for_server
from repro.serve.protocol import (
    CountQuery,
    KNNQuery,
    NNQuery,
    NNResult,
    decode_result,
    encode_query,
)
from repro.serve.service import QueryService, ServiceConfig
from repro.spaces.points import clustered_points

REFERENCES = 1024
SEED = 1


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def sample_queries(n=45):
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
    return queries


def start_server(*extra):
    """Start ``python -m repro.serve``; returns (process, port)."""
    port = free_port()
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--port",
            str(port),
            "--references",
            str(REFERENCES),
            "--seed",
            str(SEED),
            "--max-hold-ms",
            "2",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    client = wait_for_server("127.0.0.1", port, timeout=60)
    if client is None:  # pragma: no cover - startup failure diagnostics
        process.kill()
        raise RuntimeError(f"server never came up:\n{process.communicate()[0]}")
    client.close()
    return process, port


def stop_server(process, port):
    try:
        with ServeClient("127.0.0.1", port, timeout=10) as client:
            client.shutdown()
        process.wait(timeout=30)
    except Exception:
        process.kill()
        process.wait()
    finally:
        process.stdout.close()


@pytest.fixture(scope="module")
def server():
    process, port = start_server()
    yield port
    stop_server(process, port)


@pytest.fixture(scope="module")
def sharded_server():
    process, port = start_server("--shards", "2")
    yield port
    stop_server(process, port)


@pytest.fixture(scope="module")
def oracle():
    references = clustered_points(
        REFERENCES, clusters=24, spread=0.05, seed=SEED
    )
    with QueryService(references, ServiceConfig()) as service:
        yield service.execute_serial(sample_queries())


class TestServerRoundTrip:
    def test_ping_and_stats(self, server):
        with ServeClient("127.0.0.1", server) as client:
            assert client.ping()
            stats = client.stats()
        assert stats["references"] == REFERENCES
        assert "batcher" in stats

    def test_the_resident_tree_is_frozen_at_start(self, server):
        # serve() calls gc.freeze() once the service is staged, so the
        # collector's permanent generation holds at least every node of
        # the reference tree.
        with ServeClient("127.0.0.1", server) as client:
            collector = client.stats()["gc"]
        references = clustered_points(
            REFERENCES, clusters=24, spread=0.05, seed=SEED
        )
        assert collector["frozen"] > build_kdtree(references).num_nodes
        assert len(collector["collections"]) == 3

    def test_pipelined_mixed_queries_match_the_oracle(self, server, oracle):
        queries = sample_queries()
        with ServeClient("127.0.0.1", server) as client:
            results = client.query_many(queries)
        assert results == oracle

    def test_concurrent_clients_share_admission_ticks(self, server, oracle):
        import threading

        queries = sample_queries()
        outcomes = {}

        def drive(name):
            with ServeClient("127.0.0.1", server) as client:
                outcomes[name] = client.query_many(queries)

        threads = [
            threading.Thread(target=drive, args=(index,)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 4
        for results in outcomes.values():
            assert results == oracle
        # Cross-client batching actually happened: with four clients
        # pipelining 45 queries each, at least one admitted tick must
        # exceed a single client's largest kind group (15).
        with ServeClient("127.0.0.1", server) as client:
            stats = client.stats()
        assert stats["batcher"]["max_tick_size"] > 15
        # ...and the identical 45-query sets folded: every duplicate
        # that shared a tick executed once and fanned out.
        assert stats["batcher"]["dedup_folded"] > 0
        assert stats["batcher"]["executed"] < stats["batcher"]["queries"]

    def test_binary_framing_matches_json_bit_for_bit(self, server, oracle):
        queries = sample_queries()
        with ServeClient(
            "127.0.0.1", server, framing="binary"
        ) as client:
            assert client.framing == "binary"
            results = client.query_many(queries)
            stats = client.stats()
        assert results == oracle
        assert stats["references"] == REFERENCES

    def test_unknown_framing_refused_and_connection_survives(self, server):
        import json as json_module

        with socket.create_connection(("127.0.0.1", server), timeout=30) as sock:
            handle = sock.makefile("rwb")
            handle.write(
                json_module.dumps(
                    {"id": 1, "op": "hello", "framing": "carrier-pigeon"}
                ).encode()
                + b"\n"
            )
            handle.write(
                json_module.dumps({"id": 2, "op": "ping"}).encode() + b"\n"
            )
            handle.flush()
            refusal = json_module.loads(handle.readline())
            ping = json_module.loads(handle.readline())
        assert refusal["ok"] is False
        assert "unknown framing" in refusal["error"]
        assert ping["ok"] is True

    def test_malformed_and_unknown_requests_answer_errors(self, server):
        import json as json_module

        with socket.create_connection(("127.0.0.1", server), timeout=30) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"this is not json\n")
            handle.write(
                json_module.dumps({"id": 7, "op": "dance"}).encode() + b"\n"
            )
            handle.flush()
            first = json_module.loads(handle.readline())
            second = json_module.loads(handle.readline())
        assert first["ok"] is False
        assert second["ok"] is False
        assert "unknown op" in second["error"]

    def test_query_validation_error_reported_per_request(self, server):
        import json as json_module

        with socket.create_connection(("127.0.0.1", server), timeout=30) as sock:
            handle = sock.makefile("rwb")
            request = {
                "id": 1,
                "op": "query",
                "query": {"kind": "knn", "point": [0.5, 0.5], "k": 0},
            }
            handle.write(json_module.dumps(request).encode() + b"\n")
            handle.flush()
            response = json_module.loads(handle.readline())
        assert response["ok"] is False
        assert "k >= 1" in response["error"]


#: Queries the service must refuse one by one: name -> (query, a
#: fragment of the refusal).  The k case is 2**32 - 1 rather than 10**12
#: so the binary framing's u32 can carry it; both exceed the reference
#: count.
BAD_QUERIES = {
    "wrong dimension": (NNQuery((0.1, 0.2, 0.3)), "3 coordinates"),
    "k above the reference count": (
        KNNQuery((0.5, 0.5), 2**32 - 1),
        "reference count",
    ),
    "infinite coordinate": (NNQuery((float("inf"), 0.5)), "not finite"),
    "nan radius": (CountQuery((0.5, 0.5), float("nan")), "finite radius"),
}


def roundtrip_queries(client, queries):
    """Pipeline queries; per query, its result or its error message."""
    if client.framing == "binary":
        requests = [{"op": "query", "query": q} for q in queries]
    else:
        requests = [
            {"op": "query", "query": encode_query(q)} for q in queries
        ]
    answers = []
    for response in client._roundtrip(requests):
        if not response["ok"]:
            answers.append(response["error"])
        elif "binary_result" in response:
            answers.append(response["binary_result"])
        else:
            answers.append(decode_result(response["result"]))
    return answers


class TestMalformedQueries:
    @pytest.mark.parametrize("sharded", [False, True])
    @pytest.mark.parametrize("framing", ["json", "binary"])
    @pytest.mark.parametrize("case", sorted(BAD_QUERIES))
    def test_a_bad_query_fails_alone(
        self, request, oracle, sharded, framing, case
    ):
        port = request.getfixturevalue(
            "sharded_server" if sharded else "server"
        )
        bad, refusal = BAD_QUERIES[case]
        good = sample_queries()
        # The bad query sits between valid queries of every kind, so it
        # would have shared their admission ticks.
        mixed = good[:6] + [bad] + good[6:12]
        with ServeClient("127.0.0.1", port, framing=framing) as client:
            answers = roundtrip_queries(client, mixed)
            assert client.ping()  # the connection survived
        assert refusal in answers[6]
        assert answers[:6] + answers[7:] == oracle[:12]

    def test_json_k_beyond_any_framing_is_refused(self, sharded_server):
        # 10**12 neighbors would pad 7 TiB of shard columns if admitted.
        with ServeClient("127.0.0.1", sharded_server) as client:
            answers = roundtrip_queries(
                client, [KNNQuery((0.5, 0.5), 10**12), NNQuery((0.5, 0.5))]
            )
        assert "reference count" in answers[0]
        assert isinstance(answers[1], NNResult)


class TestHelloOrdering:
    """A hello is acknowledged after the connection's in-flight answers."""

    @pytest.mark.parametrize("framing", ["binary", "json"])
    def test_in_flight_json_answers_precede_the_ack(self, server, framing):
        import json as json_module

        points = clustered_points(200, clusters=6, spread=0.07, seed=23)
        queries = [
            CountQuery(tuple(float(v) for v in point), 0.3) for point in points
        ]
        after = NNQuery(queries[0].point)
        # One write: 200 JSON queries, the hello, and a query in the
        # framing the hello selects.
        payload = b"".join(
            json_module.dumps(
                {"id": i + 1, "op": "query", "query": encode_query(query)}
            ).encode()
            + b"\n"
            for i, query in enumerate(queries)
        )
        payload += (
            json_module.dumps({"id": 0, "op": "hello", "framing": framing}).encode()
            + b"\n"
        )
        if framing == "binary":
            payload += fr.encode_frame(fr.T_QUERY, 500, fr.pack_query(after))
        else:
            payload += (
                json_module.dumps(
                    {"id": 500, "op": "query", "query": encode_query(after)}
                ).encode()
                + b"\n"
            )
        with socket.create_connection(("127.0.0.1", server), timeout=30) as sock:
            sock.sendall(payload)
            handle = sock.makefile("rb")
            answered = []
            while True:
                message = json_module.loads(handle.readline())
                if message["id"] == 0:
                    break
                assert message["ok"], message
                answered.append(message["id"])
            assert message == {"id": 0, "ok": True, "framing": framing}
            assert sorted(answered) == list(range(1, 201))
            if framing == "binary":
                frame_type, request_id, body = fr.read_frame_blocking(handle)
                assert (frame_type, request_id) == (fr.T_RESULT, 500)
                assert isinstance(fr.unpack_result(body), NNResult)
            else:
                message = json_module.loads(handle.readline())
                assert message["id"] == 500
                assert isinstance(decode_result(message["result"]), NNResult)


def shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


class TestProcessDeath:
    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs a /dev/shm listing"
    )
    @pytest.mark.parametrize("shards", [1, 2])
    def test_sigkill_releases_shared_memory(self, shards):
        import signal
        import time

        before = shm_entries()
        process, port = start_server("--shards", str(shards))
        try:
            published = shm_entries() - before
            assert len(published) >= shards
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while published & shm_entries() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not published & shm_entries()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
