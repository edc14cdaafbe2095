"""The client side of the ``repro.serve`` wire protocol, written from its spec.

JSON lines by default; binary frames after a ``hello`` that negotiates
them (``u32 length | u8 type | u32 request id | body``, little-endian,
length counting everything after the length word).  Kept independent
of ``repro.serve``'s own codec so that a change to the server's wire
code is measured, and checked, from the outside.
"""

from __future__ import annotations

import json
import struct

from harness.inputs import COUNT_RADIUS, KNN_K, Query

T_QUERY, T_STATS, T_PING, T_SHUTDOWN = 0x01, 0x02, 0x03, 0x04
T_RESULT, T_ERROR, T_OK, T_STATS_REPLY = 0x05, 0x06, 0x07, 0x08

LENGTH = struct.Struct("<I")
HEADER = struct.Struct("<BI")

_NN = struct.Struct("<BH2d")
_KNN = struct.Struct("<BIH2d")
_COUNT = struct.Struct("<BdH2d")
_NN_RESULT = struct.Struct("<qd")


def json_query(request_id: int, query: Query) -> bytes:
    """One JSON query line."""
    body: dict = {"kind": query.kind, "point": list(query.point)}
    if query.kind == "knn":
        body["k"] = KNN_K
    elif query.kind == "count":
        body["radius"] = COUNT_RADIUS
    return json.dumps({"id": request_id, "op": "query", "query": body}).encode() + b"\n"


def json_op(request_id: int, op: str, **fields) -> bytes:
    """One JSON control line (ping, stats, shutdown, hello)."""
    return json.dumps({"id": request_id, "op": op, **fields}).encode() + b"\n"


def frame(frame_type: int, request_id: int, body: bytes = b"") -> bytes:
    """One binary frame."""
    payload = HEADER.pack(frame_type, request_id) + body
    return LENGTH.pack(len(payload)) + payload


def binary_query(request_id: int, query: Query) -> bytes:
    """One binary query frame."""
    x, y = query.point
    if query.kind == "nn":
        body = _NN.pack(0x01, 2, x, y)
    elif query.kind == "knn":
        body = _KNN.pack(0x02, KNN_K, 2, x, y)
    else:
        body = _COUNT.pack(0x03, COUNT_RADIUS, 2, x, y)
    return frame(T_QUERY, request_id, body)


def answer_from_json(result: dict):
    """A JSON result in oracle form (see :mod:`harness.oracle`)."""
    kind = result["kind"]
    if kind == "nn":
        return (int(result["neighbor_id"]), float(result["distance"]))
    if kind == "knn":
        return (
            tuple(int(i) for i in result["neighbor_ids"]),
            tuple(float(d) for d in result["distances"]),
        )
    return int(result["count"])


def answer_from_binary(body: bytes):
    """A binary result body in oracle form."""
    tag = body[0]
    if tag == 0x01:
        neighbor, distance = _NN_RESULT.unpack_from(body, 1)
        return (int(neighbor), float(distance))
    if tag == 0x02:
        (k,) = struct.unpack_from("<I", body, 1)
        ids = struct.unpack_from(f"<{k}q", body, 5)
        dists = struct.unpack_from(f"<{k}d", body, 5 + 8 * k)
        return (tuple(int(i) for i in ids), tuple(float(d) for d in dists))
    if tag == 0x03:
        return int(struct.unpack_from("<q", body, 1)[0])
    raise ValueError(f"unknown result tag {tag:#x}")
