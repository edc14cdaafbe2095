"""QueryService: startup, query checks, tick execution, demux, lifecycle."""

import os

import numpy as np
import pytest

from repro.errors import SpecError
from repro.serve.protocol import (
    CountQuery,
    CountResult,
    KNNQuery,
    KNNResult,
    NNQuery,
    NNResult,
)
from repro.serve.service import KINDS, QueryService, ServiceConfig
from repro.spaces.points import clustered_points


def shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


def mixed_queries(n=64, seed=11):
    rng = np.random.default_rng(seed)
    points = clustered_points(n, clusters=6, spread=0.07, seed=seed)
    queries = []
    for index in range(n):
        point = tuple(float(value) for value in points[index])
        kind = index % 3
        if kind == 0:
            queries.append(NNQuery(point))
        elif kind == 1:
            queries.append(KNNQuery(point, int(rng.integers(1, 6))))
        else:
            queries.append(CountQuery(point, 0.3))
    return queries


@pytest.fixture(scope="module")
def service():
    references = clustered_points(768, clusters=8, spread=0.08, seed=1)
    service = QueryService(references, ServiceConfig(max_batch=64))
    yield service
    service.close()


class TestStartup:
    def test_every_kind_reports_the_frontier(self, service):
        backends = service.service_stats()["backends"]
        assert backends == {
            kind: {"backend": "frontier", "order": "preorder"}
            for kind in KINDS
        }

    def test_reference_accelerators_are_warm(self, service):
        # Finalize-once: the frontier's and the oracle's lazily-built
        # staging arrays must already hang off the resident tree.
        tree = service.reference_tree
        assert getattr(tree, "_leaf_blocks", None) is not None
        assert getattr(tree, "_bound_arrays", None) is not None
        assert getattr(tree, "_node_arrays", None) is not None

    def test_publication_carries_the_reference_points(self, service):
        arrays = service.publication.arrays()
        assert np.array_equal(arrays["references"], service.references)

    def test_bad_references_rejected(self):
        with pytest.raises(SpecError, match="non-empty"):
            QueryService(np.zeros((0, 2)))

    def test_bad_config_rejected(self):
        with pytest.raises(SpecError, match="max_batch"):
            ServiceConfig(max_batch=0)
        with pytest.raises(SpecError, match="leaf_size"):
            ServiceConfig(leaf_size=0)
        with pytest.raises(SpecError, match="workers"):
            ServiceConfig(workers=-1)


class TestBatchVsSerial:
    def test_mixed_batch_is_bit_identical_to_the_oracle(self, service):
        queries = mixed_queries(64)
        batched = service.execute_batch(queries)
        oracle = service.execute_serial(queries)
        assert batched == oracle

    def test_demux_preserves_submission_order(self, service):
        # Interleaved kinds: results must land at their query's index,
        # not grouped-by-kind order.
        queries = mixed_queries(12, seed=5)
        results = service.execute_batch(queries)
        for query, result in zip(queries, results):
            expected = {
                NNQuery: NNResult,
                KNNQuery: KNNResult,
                CountQuery: CountResult,
            }[type(query)]
            assert isinstance(result, expected)
        knn = [
            (query, result)
            for query, result in zip(queries, results)
            if isinstance(query, KNNQuery)
        ]
        assert all(len(result.neighbor_ids) == query.k for query, result in knn)

    def test_empty_batch(self, service):
        assert service.execute_batch([]) == []

    def test_stats_account_queries_and_batches(self):
        references = clustered_points(256, clusters=4, spread=0.08, seed=2)
        with QueryService(references) as service:
            service.execute_batch(mixed_queries(30))
            stats = service.service_stats()
        assert stats["queries"] == 30
        assert stats["batches"] >= 3  # one per kind-compatible group
        assert set(stats["backends"]) == set(KINDS)
        assert stats["references"] == 256


class TestQueryChecks:
    """A query the service cannot answer fails alone, before any work."""

    BAD = {
        "wrong dimension": NNQuery((0.1, 0.2, 0.3)),
        "k above the reference count": KNNQuery((0.5, 0.5), 10**12),
        "k of zero": KNNQuery((0.5, 0.5), 0),
        "infinite coordinate": NNQuery((float("inf"), 0.5)),
        "nan coordinate": CountQuery((float("nan"), 0.5), 0.3),
        "nan radius": CountQuery((0.5, 0.5), float("nan")),
        "infinite radius": CountQuery((0.5, 0.5), float("inf")),
        "negative radius": CountQuery((0.5, 0.5), -0.1),
    }

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_execute_batch_raises_before_running_anything(self, case, shards):
        references = clustered_points(64, clusters=4, spread=0.08, seed=6)
        good = NNQuery((0.5, 0.5))
        with QueryService(references, ServiceConfig(shards=shards)) as service:
            with pytest.raises(SpecError):
                service.execute_batch([good, self.BAD[case], good])
            assert service.service_stats()["queries"] == 0
            # The service is unharmed: the good queries still answer.
            assert service.execute_batch([good]) == service.execute_serial(
                [good]
            )

    def test_boundary_values_are_accepted(self, service):
        n = len(service.references)
        queries = [
            KNNQuery((0.5, 0.5), n),
            KNNQuery((0.5, 0.5), 1),
            CountQuery((0.5, 0.5), 0.0),
        ]
        assert service.execute_batch(queries) == service.execute_serial(
            queries
        )


class TestPooledExecution:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_worker_pool_matches_the_oracle(self, shards):
        references = clustered_points(384, clusters=4, spread=0.08, seed=3)
        queries = mixed_queries(24, seed=13)
        before = shm_entries()
        with QueryService(
            references, ServiceConfig(workers=1, shards=shards)
        ) as service:
            oracle = service.execute_serial(queries)
            pooled = service.execute_batch(queries)
            again = service.execute_batch(queries)  # resident worker reuse
        assert pooled == oracle
        assert again == oracle
        assert shm_entries() == before


class TestLifecycle:
    def test_close_is_idempotent_and_leaks_nothing(self):
        before = shm_entries()
        references = clustered_points(128, clusters=4, spread=0.08, seed=4)
        service = QueryService(references)
        service.execute_batch(mixed_queries(9))
        service.close()
        service.close()
        assert shm_entries() == before


class TestGroupChecks:
    """The tick checks a group at once; a failure raises its query's message."""

    CASES = {
        "wrong dimension": (NNQuery((0.1, 0.2, 0.3)), "3 coordinates"),
        "ragged dimensions": (NNQuery((0.1,)), "1 coordinates"),
        "nan coordinate": (KNNQuery((float("nan"), 0.5), 2), "not finite"),
        "k above the reference count": (KNNQuery((0.5, 0.5), 10**6), "k <="),
        "infinite radius": (CountQuery((0.5, 0.5), float("inf")), "radius"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_failing_query_names_itself(self, service, case):
        bad, message = self.CASES[case]
        good = NNQuery((0.5, 0.5))
        with pytest.raises(SpecError, match=message):
            service.execute_batch([good, bad, good])
