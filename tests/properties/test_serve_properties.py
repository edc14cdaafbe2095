"""Property-based dedup/shard demux guarantee for the serving path.

The contract the admission batcher and the shard gather both lean on:
**any** mix of duplicated and permuted concurrent queries admitted in
one tick is answered bit-identically to the per-query serial oracle —
for every kind (NN / k-NN / count), with and without reference-set
sharding.  Hypothesis drives arbitrary duplicate multiplicities,
arbitrary interleavings across kinds, and duplicate query points that
collide exactly (the dedup key is exact coordinates), then the demuxed
answers are compared as frozen dataclasses — ``==`` on float fields is
bit comparison for our purposes (no tolerance anywhere).

The services are module-scoped over one deterministic reference set:
the property is about *admission shapes*, not tree shapes, so
rebuilding trees per example would only slow the sweep down.
"""

import asyncio

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serve.batcher import AdmissionBatcher
from repro.serve.protocol import CountQuery, KNNQuery, NNQuery
from repro.serve.service import QueryService, ServiceConfig
from repro.spaces.points import clustered_points

REFERENCES = clustered_points(400, clusters=8, spread=0.08, seed=5)

#: A small palette of exact candidate points; duplicates arise when
#: hypothesis picks the same palette index twice.
PALETTE = [
    tuple(float(value) for value in point)
    for point in clustered_points(12, clusters=4, spread=0.1, seed=23)
]

_SERVICES: dict[int, QueryService] = {}


def service_for(shards: int) -> QueryService:
    cached = _SERVICES.get(shards)
    if cached is None:
        cached = QueryService(REFERENCES, ServiceConfig(shards=shards))
        _SERVICES[shards] = cached
    return cached


def queries_strategy():
    point = st.sampled_from(PALETTE)
    return st.lists(
        st.one_of(
            st.builds(NNQuery, point),
            st.builds(
                KNNQuery, point, st.integers(min_value=1, max_value=9)
            ),
            st.builds(
                CountQuery,
                point,
                st.sampled_from([0.1, 0.25, 0.4]),
            ),
        ),
        min_size=1,
        max_size=24,
    )


def answer_one_tick(service: QueryService, queries) -> list:
    """Admit every query concurrently through a real batcher tick."""

    async def scenario():
        batcher = AdmissionBatcher(
            service.execute_batch, max_batch=256, max_hold_s=0.05
        )
        return await asyncio.gather(
            *(batcher.submit(query) for query in queries)
        )

    return asyncio.run(scenario())


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(queries=queries_strategy(), shards=st.sampled_from([1, 3]))
def test_any_duplicate_mix_matches_per_query_oracles(queries, shards):
    service = service_for(shards)
    batched = answer_one_tick(service, queries)
    oracle = service_for(1).execute_serial(queries)
    assert batched == oracle


@settings(max_examples=15, deadline=None)
@given(
    queries=queries_strategy(),
    data=st.data(),
)
def test_permutations_permute_answers(queries, data):
    """Demux follows submission order: permuting queries permutes
    exactly the answers, never the bindings."""
    service = service_for(1)
    order = data.draw(st.permutations(list(range(len(queries)))))
    base = answer_one_tick(service, queries)
    shuffled = answer_one_tick(
        service, [queries[index] for index in order]
    )
    assert shuffled == [base[index] for index in order]


@settings(max_examples=15, deadline=None)
@given(
    point=st.sampled_from(PALETTE),
    copies=st.integers(min_value=2, max_value=12),
    shards=st.sampled_from([1, 3]),
)
def test_pure_duplicate_ticks_fold_to_one_execution(point, copies, shards):
    service = service_for(shards)
    queries = [KNNQuery(point, 4)] * copies

    async def scenario():
        batcher = AdmissionBatcher(
            service.execute_batch, max_batch=256, max_hold_s=0.05
        )
        results = await asyncio.gather(
            *(batcher.submit(query) for query in queries)
        )
        return batcher, results

    batcher, results = asyncio.run(scenario())
    oracle = service_for(1).execute_serial([queries[0]])[0]
    assert all(result == oracle for result in results)
    # Whatever the tick boundaries were, total distinct executions is
    # bounded by the tick count (one distinct entry per tick), and at
    # least one fold happened unless every copy landed alone.
    assert batcher.executed == batcher.ticks
    assert batcher.dedup_folded == copies - batcher.executed


def teardown_module(module):
    for service in _SERVICES.values():
        service.close()
    _SERVICES.clear()
