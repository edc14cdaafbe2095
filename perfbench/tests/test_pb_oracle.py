import numpy as np
import pytest

from harness.inputs import COUNT_RADIUS, KNN_K, Query, ServeSizes, serve_references
from harness.oracle import (
    batch_mismatch,
    check_answers,
    expected_answers,
    matmul_tolerance,
)

SIZES = ServeSizes(references=2048)


@pytest.fixture(scope="module")
def references():
    return serve_references(7, SIZES)


def _queries(n=60):
    from harness.inputs import QueryStream

    stream = QueryStream(7, SIZES, hot=False)
    return [stream.next() for _ in range(n)]


def test_oracle_matches_the_served_answers(references):
    """The brute-force oracle agrees bit for bit with the program's service."""
    from repro.serve.protocol import CountQuery, KNNQuery, NNQuery
    from repro.serve.service import QueryService

    refs = references
    queries = _queries()
    served = {"nn": lambda p: NNQuery(p), "knn": lambda p: KNNQuery(p, KNN_K),
              "count": lambda p: CountQuery(p, COUNT_RADIUS)}
    with QueryService(refs) as service:
        results = service.execute_batch([served[q.kind](q.point) for q in queries])
    pairs = []
    for query, result in zip(queries, results):
        if query.kind == "nn":
            answer = (result.neighbor_id, result.distance)
        elif query.kind == "knn":
            answer = (result.neighbor_ids, result.distances)
        else:
            answer = result.count
        pairs.append((query, answer))
    assert check_answers(refs, pairs) == []


def test_oracle_catches_a_wrong_answer(references):
    refs = references
    queries = _queries(30)
    expected = expected_answers(refs, queries)
    pairs = [(q, expected[q]) for q in queries]
    assert check_answers(refs, pairs) == []

    nn = next(i for i, q in enumerate(queries) if q.kind == "nn")
    knn = next(i for i, q in enumerate(queries) if q.kind == "knn")
    count = next(i for i, q in enumerate(queries) if q.kind == "count")
    ident, dist = pairs[nn][1]
    ids, dists = pairs[knn][1]
    wrong = list(pairs)
    # One ulp off, a swapped neighbor order, a count off by one.
    wrong[nn] = (queries[nn], (ident, float(np.nextafter(dist, np.inf))))
    wrong[knn] = (queries[knn], (ids[::-1], dists[::-1]))
    wrong[count] = (queries[count], pairs[count][1] + 1)
    assert check_answers(refs, wrong) == sorted([nn, knn, count])


def test_neighbor_ties_break_by_id():
    refs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, 3.0]])
    query = Query("knn", (0.0, 0.0))
    ids, dists = expected_answers(refs, [query])[query]
    assert ids[:3] == (0, 1, 2) and dists[:3] == (1.0, 1.0, 1.0)
    nn = Query("nn", (0.0, 0.0))
    assert expected_answers(refs, [nn])[nn] == (0, 1.0)
    # A reference at exactly the radius counts (<=); one ulp beyond does not.
    at_radius = np.array([[COUNT_RADIUS, 0.0], [0.0, np.nextafter(COUNT_RADIUS, 1.0)]])
    count = Query("count", (0.0, 0.0))
    assert expected_answers(at_radius, [count])[count] == 1


def test_batch_checks():
    rng = np.random.default_rng(0)
    a, b = rng.random((16, 8)), rng.random((8, 16))
    tolerance = matmul_tolerance(a, b)
    ref = a @ b
    reordered = np.einsum("ik,kj->ij", a[:, ::-1], b[::-1, :])
    assert batch_mismatch("MM-twist", reordered, ref, tolerance) is None
    off = ref.copy()
    off[3, 4] += 1e-9
    assert "1 entries" in batch_mismatch("MM-twist", off, ref, tolerance)
    assert batch_mismatch("PC-twist", 41, 41) is None
    assert batch_mismatch("PC-twist", 42, 41) is not None
    assert batch_mismatch("NN-original", "ab", "ac") is not None
    assert batch_mismatch("TJ-twist", [5, 6], [5, 6]) is None
