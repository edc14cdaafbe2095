import json

from harness import wire
from harness.inputs import Query


def test_client_codec_matches_the_server_codec():
    """The benchmark's own codec and the program's agree on every field."""
    from repro.serve import framing
    from repro.serve.protocol import KNNResult, NNResult, CountResult, decode_query

    for kind in ("nn", "knn", "count"):
        query = Query(kind, (0.1 + 1e-17, -2.5))
        decoded = decode_query(json.loads(wire.json_query(7, query))["query"])
        frame = wire.binary_query(7, query)
        frame_type, request_id, body = framing.decode_frame(frame[4:])
        assert (frame_type, request_id) == (framing.T_QUERY, 7)
        assert framing.unpack_query(body) == decoded
        assert decoded.point == query.point

    results = [
        (NNResult(3, 0.25), (3, 0.25)),
        (KNNResult((1, 2), (0.5, 0.75)), ((1, 2), (0.5, 0.75))),
        (CountResult(9), 9),
    ]
    from repro.serve.protocol import encode_result

    for result, answer in results:
        assert wire.answer_from_binary(framing.pack_result(result)) == answer
        assert wire.answer_from_json(json.loads(json.dumps(encode_result(result)))) == answer
