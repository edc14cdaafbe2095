"""Point-frontier ticks equal the per-query serial oracle, bit for bit.

``QueryService.execute_batch`` answers a tick with per-point descents of
the reference tree (:mod:`repro.dualtree.frontier`); ``execute_serial``
runs the serve rules' dual-tree traversal once per query.  Hypothesis
draws the inputs most likely to tell them apart:

* reference sets with exact duplicate points, some on a coarse grid, so
  distance ties between different ids are common (ids break them), and
  sometimes a block of equal points, which the build cannot split (a
  degenerate oversized leaf);
* queries on reference points and on leaf-box edges (coordinates
  borrowed axis by axis from different reference points);
* count radii equal to a realized query-to-reference distance, or to a
  node's computed max-distance from the query (where whole-node
  inclusion meets leaf evaluation);
* k anywhere from 1 to the reference count, or three leaves' worth;
* dimensions 2, 3 and 8 (8 is where NumPy starts summing squared
  terms pairwise), sizes that are rarely powers of two (leaves at mixed
  depths), and 1 or 3 shards.

The cut level moves between the root and the leaves, and every block
constant shrinks to a small prime, so chunks of query points, active
pair sets and blocks of (point, leaf) pairs straddle their edges.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dualtree import frontier
from repro.dualtree.kdtree import build_kdtree
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
    if draw(st.booleans()):
        copies[0] = draw(st.integers(8, 40))
    references = np.repeat(base, copies, axis=0)
    references = references[rng.permutation(len(references))]
    n = len(references)
    leaf_size = draw(st.integers(1, 6))
    nodes = frontier.node_arrays(build_kdtree(references, leaf_size))

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
            k = draw(st.one_of(st.integers(1, n), st.just(min(n, 3 * leaf_size))))
            queries.append(KNNQuery(point, k))
        elif draw(st.booleans()):
            realized = _pairwise_distances(np.array([point]), references)[0]
            radius = float(realized[draw(st.integers(0, n - 1))])
            queries.append(CountQuery(point, radius))
        else:
            _, reach = frontier._box_dists(
                np.array([point]), nodes.lo, nodes.hi, far=True
            )
            radius = float(reach[draw(st.integers(0, len(reach) - 1))])
            queries.append(CountQuery(point, radius))
    return {
        "references": references,
        "queries": queries,
        "leaf_size": leaf_size,
        "shards": draw(st.sampled_from([1, 3])),
        "cut_depth": draw(st.sampled_from([0, 1, 2, 6])),
        "row_entries": draw(st.sampled_from([2, 7, 61])),
        "active_pairs": draw(st.sampled_from([2, 3, 29])),
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
    # The cut is part of the staged node arrays, built at service start.
    with mock.patch.object(frontier, "CUT_DEPTH", scenario["cut_depth"]):
        service = QueryService(scenario["references"], config)
    with service:
        with mock.patch.object(
            frontier, "ROW_ENTRIES", scenario["row_entries"]
        ), mock.patch.object(
            frontier, "ACTIVE_PAIRS", scenario["active_pairs"]
        ), mock.patch.object(
            frontier, "PAIR_ENTRIES", scenario["pair_entries"]
        ):
            batched = service.execute_batch(scenario["queries"])
        oracle = service.execute_serial(scenario["queries"])
    assert batched == oracle
