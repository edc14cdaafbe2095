"""Leaf-frontier ticks equal the per-query serial oracle, bit for bit.

``QueryService.execute_batch`` answers a tick with point-level leaf
frontiers (:mod:`repro.dualtree.frontier`); ``execute_serial`` runs the
serve rules' dual-tree traversal once per query.  Hypothesis draws the
inputs most likely to tell them apart:

* reference sets with exact duplicate points, some on a coarse grid, so
  distance ties between different ids are common (ids break them);
* queries on reference points and on leaf-box edges (coordinates
  borrowed axis by axis from different reference points);
* count radii equal to a realized query-to-reference distance;
* k anywhere from 1 to the reference count;
* dimensions 2, 3 and 8 (8 is where NumPy starts summing squared
  terms pairwise) and 1 or 3 shards.

Both block constants shrink to small primes, so chunks of query points
and blocks of (point, leaf) pairs straddle their edges.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dualtree import frontier
from repro.dualtree.rules import _pairwise_distances
from repro.serve.protocol import CountQuery, KNNQuery, NNQuery
from repro.serve.service import QueryService, ServiceConfig


@st.composite
def scenarios(draw):
    dim = draw(st.sampled_from([2, 3, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(3, 60))
    if draw(st.booleans()):
        base = rng.integers(0, 4, size=(distinct, dim)) / 4.0
    else:
        base = rng.random((distinct, dim))
    copies = rng.integers(1, 4, size=distinct)
    references = np.repeat(base, copies, axis=0)
    references = references[rng.permutation(len(references))]
    n = len(references)

    def query_point():
        shape = draw(st.sampled_from(["reference", "edge", "free"]))
        if shape == "reference":
            point = references[rng.integers(n)]
        elif shape == "edge":
            point = references[rng.integers(n, size=dim), np.arange(dim)]
        else:
            point = rng.random(dim) * 1.2 - 0.1
        return tuple(float(value) for value in point)

    queries = []
    for _ in range(draw(st.integers(1, 12))):
        point = query_point()
        kind = draw(st.sampled_from(["nn", "knn", "count"]))
        if kind == "nn":
            queries.append(NNQuery(point))
        elif kind == "knn":
            queries.append(KNNQuery(point, draw(st.integers(1, n))))
        else:
            realized = _pairwise_distances(np.array([point]), references)[0]
            radius = float(realized[draw(st.integers(0, n - 1))])
            queries.append(CountQuery(point, radius))
    return {
        "references": references,
        "queries": queries,
        "leaf_size": draw(st.integers(1, 6)),
        "shards": draw(st.sampled_from([1, 3])),
        "row_entries": draw(st.sampled_from([2, 7, 61])),
        "pair_entries": draw(st.sampled_from([3, 5, 53])),
    }


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_frontier_ticks_equal_the_serial_oracle(scenario):
    config = ServiceConfig(
        leaf_size=scenario["leaf_size"], shards=scenario["shards"]
    )
    with QueryService(scenario["references"], config) as service:
        with mock.patch.object(
            frontier, "ROW_ENTRIES", scenario["row_entries"]
        ), mock.patch.object(
            frontier, "PAIR_ENTRIES", scenario["pair_entries"]
        ):
            batched = service.execute_batch(scenario["queries"])
        oracle = service.execute_serial(scenario["queries"])
    assert batched == oracle
