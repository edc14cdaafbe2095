"""A persistent dual-tree query service (the serving layer).

The paper's Section 2 interchange observation — "many concurrent
queries x one reference tree" is just another nested recursive
iteration space — becomes an admission policy here: concurrent user
queries are grouped per tick and answered by one per-point tree
descent (:mod:`repro.dualtree.frontier`) against a reference
tree that was finalized and published to shared memory exactly once
at startup.

Public surface:

* :class:`~repro.serve.service.QueryService` — the resident back end:
  builds everything once, checks and executes admitted ticks, demuxes
  per-query answers from result columns.
* :class:`~repro.serve.batcher.AdmissionBatcher` — the asyncio front
  end: groups concurrent queries by compatible kind/parameters under a
  (max batch size, max hold latency) policy.
* :mod:`~repro.serve.protocol` — query/result dataclasses plus their
  JSON wire encoding.
* ``python -m repro.serve`` — a JSON-lines TCP server over the two.

Every tick's answer is **bit-identical** to per-query serial
execution; see :mod:`repro.dualtree.frontier` and
:mod:`repro.serve.rules` for the argument.
"""

from repro.serve.batcher import AdmissionBatcher
from repro.serve.protocol import (
    CountQuery,
    CountResult,
    KNNQuery,
    KNNResult,
    NNQuery,
    NNResult,
    decode_query,
    decode_result,
    encode_query,
    encode_result,
    group_key,
)
from repro.serve.service import QueryService, ServiceConfig

__all__ = [
    "AdmissionBatcher",
    "CountQuery",
    "CountResult",
    "KNNQuery",
    "KNNResult",
    "NNQuery",
    "NNResult",
    "QueryService",
    "ServiceConfig",
    "decode_query",
    "decode_result",
    "encode_query",
    "encode_result",
    "group_key",
]
