"""Node-block work dispatch for the SoA executors' ``nodes`` mode.

The recursive executors (:mod:`repro.core.executors`,
:mod:`repro.core.interchange`, :mod:`repro.core.twisting`) execute one
Python ``work(o, i)`` call per iteration.  The explicit-stack SoA
executors (:mod:`repro.core.soa_exec`) instead *defer* work into
blocks; a spec without a SoA-native ``work_batch_soa`` kernel (PC,
plain ``work_batch`` specs, parallel single-node-view tasks) has its
deferred node pairs collected here and dispatched through the spec's
vectorized ``work_batch`` (one NumPy call per block), the same
traversal/base-case split production dual-tree frameworks use
(Curtin et al., PAPERS.md).

Dispatch contract
-----------------

* **Work order is preserved.**  Deferred pairs are dispatched in the
  order they were reached; ``work_batch`` must be semantically
  equivalent to calling ``work`` on each pair in that order.
* **Stateful truncation stays correct.**  When
  ``spec.truncation_observes_work`` is set, :meth:`BatchDispatcher.barrier`
  flushes all pending work *before* any ``truncateInner2?`` evaluation
  whose outer node has deferred pairs, so no truncation decision can
  ever observe stale state.  The contract is per-outer-node: a
  truncation check for outer node ``o`` may observe the effects of
  work points whose outer node is ``o`` (the dual-tree situation — all
  rule state is per-query leaf); cross-outer effects would require
  flushing on every check and are not supported.

The backend-conformance analyzer's ``batched`` verdict
(:mod:`repro.transform.lint.backend`) judges exactly this dispatch:
the ``work_batch`` kernel against the scalar ``work``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.instruments import NULL_INSTRUMENT, Instrument
from repro.core.spec import NestedRecursionSpec, _never
from repro.spaces.node import IndexNode

#: Pending pairs are dispatched whenever at least this many accumulate.
DEFAULT_BATCH_SIZE = 8192


class BatchDispatcher:
    """Accumulates deferred (o, i) work pairs and dispatches blocks.

    Pairs are appended in schedule order and flushed — to the spec's
    ``work_batch`` when present, else to a scalar ``work`` loop — when
    the block reaches ``batch_size``, when a stateful truncation check
    requires a barrier, and once at the end of the run.
    """

    __slots__ = (
        "work",
        "work_batch",
        "batch_size",
        "track_outers",
        "_outer_pending",
        "_os",
        "_is",
    )

    def __init__(
        self, spec: NestedRecursionSpec, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> None:
        self.work = spec.work
        self.work_batch = spec.work_batch
        self.batch_size = batch_size
        self.track_outers = spec.truncation_observes_work and (
            spec.work is not None or spec.work_batch is not None
        )
        self._outer_pending: set[IndexNode] = set()
        self._os: list[IndexNode] = []
        self._is: list[IndexNode] = []

    def add(self, o: IndexNode, i: IndexNode) -> None:
        """Defer one work pair."""
        self._os.append(o)
        self._is.append(i)
        if self.track_outers:
            self._outer_pending.add(o)
        if len(self._os) >= self.batch_size:
            self.flush()

    def add_many(self, os: list, is_: list) -> None:
        """Defer a run of work pairs (two parallel lists)."""
        self._os.extend(os)
        self._is.extend(is_)
        if self.track_outers:
            self._outer_pending.update(os)
        if len(self._os) >= self.batch_size:
            self.flush()

    def barrier(self, o: IndexNode) -> None:
        """Flush if outer node ``o`` has deferred, unexecuted work.

        Called before every stateful ``truncateInner2?`` evaluation so
        the check observes exactly the state the recursive executor
        would have produced by this point.
        """
        if o in self._outer_pending:
            self.flush()

    def flush(self) -> None:
        """Dispatch all pending pairs, preserving their order.

        The pending lists are cleared *in place* (not rebound), so the
        executors' fast paths may hold direct references to them.
        Consequently ``work_batch`` implementations must not retain the
        sequences they are passed beyond the call.
        """
        if not self._os:
            return
        os, is_ = self._os, self._is
        if self.track_outers:
            self._outer_pending.clear()
        if self.work_batch is not None:
            self.work_batch(os, is_)
        elif self.work is not None:
            work = self.work
            for o, i in zip(os, is_):
                work(o, i)
        del os[:]
        del is_[:]


def _block_truncation(
    spec: NestedRecursionSpec, instrumented: bool
) -> Optional[object]:
    """The block form of ``truncateInner2?``, when it may be used.

    Block evaluation pre-computes every decision for an outer node in
    one call, which is only legal when nothing can observe the
    difference: the run is uninstrumented (per-decision ``trunc_check``
    ops are skipped) and the truncation is stateless
    (``truncation_observes_work`` unset — a stateful predicate must be
    evaluated at its schedule position).  ``truncate_inner1`` must also
    be the never-truncating default so the fast traversal loop may omit
    it.
    """
    if (
        instrumented
        or spec.truncate_inner2_batch is None
        or spec.truncation_observes_work
        or spec.truncate_inner1 is not _never
    ):
        return None
    return spec.truncate_inner2_batch


def engaged_kernels(
    spec: NestedRecursionSpec, instrument: Optional[Instrument] = None
) -> dict[str, bool]:
    """Which vectorized fast paths an explicit-stack run would engage.

    The sanitize backend (:mod:`repro.core.sanitize`) uses this to
    report *what* was exercised: an instrumented lockstep phase never
    engages ``bulk`` or ``block_truncation``, so a separate
    uninstrumented phase is needed to cover them.
    """
    # soa_exec imports this module, so its bulk test is imported here.
    from repro.core.soa_exec import _bulk_eligible

    ins = NULL_INSTRUMENT if instrument is None else instrument
    return {
        "work_batch": spec.work_batch is not None,
        "bulk": _bulk_eligible(spec, ins),
        "block_truncation": _block_truncation(spec, ins is not NULL_INSTRUMENT)
        is not None,
    }


def _as_prune_list(decisions: object) -> Optional[list]:
    """Normalize a block-truncation result to a ``number``-indexed list.

    ``True``/``False``/``None`` pass through (uniform decision or
    unavailable); arrays become plain lists for cheap per-node lookup.
    """
    if decisions is None or decisions is True or decisions is False:
        return decisions
    if hasattr(decisions, "tolist"):
        return decisions.tolist()
    return list(decisions)
