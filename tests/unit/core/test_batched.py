"""Parity and unit tests for node-block dispatch (:mod:`repro.core.batched`).

The SoA executors defer node pairs into a
:class:`~repro.core.batched.BatchDispatcher` — their ``nodes`` mode —
for every spec without a SoA-native kernel.  The contract is
*bit-identical observability*: for every schedule configuration, the
instrument event stream (ops, accesses, work points, in order) and the
computed results must match the recursive executors exactly.  These
tests enforce it on all six annotated benchmarks (plus KDE, whose
``Score`` has a productive side effect) with each spec's
``work_batch_soa`` stripped, so TJ and MM dispatch their ``work_batch``
node blocks too, and exercise the dispatcher machinery directly.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    NestedRecursionSpec,
    run_interchanged,
    run_interchanged_soa,
    run_original,
    run_original_soa,
    run_twisted,
    run_twisted_soa,
)
from repro.core.batched import DEFAULT_BATCH_SIZE, BatchDispatcher
from repro.core.instruments import Instrument
from repro.core.schedules import BY_NAME, get_schedule, twist_with_cutoff
from repro.errors import ScheduleError, SpecError
from repro.spaces import balanced_tree, paper_inner_tree, paper_outer_tree


class EventRecorder(Instrument):
    """Records every instrument event, in order."""

    def __init__(self):
        self.events = []

    def op(self, kind):
        self.events.append(("op", kind))

    def access(self, tree, node):
        self.events.append(("access", tree, node.number))

    def work(self, o, i):
        self.events.append(("work", o.number, i.number))


def node_block(run):
    """``run`` on the spec minus its SoA-native kernel: soa's nodes mode."""

    def run_nodes(spec, instrument=None, **kwargs):
        run(replace(spec, work_batch_soa=None), instrument, **kwargs)

    return run_nodes


#: (label, recursive runner, node-block runner, kwargs) for every
#: schedule configuration under test.
VARIANTS = [
    ("original", run_original, node_block(run_original_soa), {}),
    ("interchange", run_interchanged, node_block(run_interchanged_soa), {}),
    (
        "interchange+counters+subtree",
        run_interchanged,
        node_block(run_interchanged_soa),
        {"use_counters": True, "subtree_truncation": True},
    ),
    ("twist", run_twisted, node_block(run_twisted_soa), {}),
    (
        "twist+counters",
        run_twisted,
        node_block(run_twisted_soa),
        {"use_counters": True},
    ),
    (
        "twist(cutoff=16)-subtree",
        run_twisted,
        node_block(run_twisted_soa),
        {"cutoff": 16, "subtree_truncation": False},
    ),
]


def make_cases():
    """Small instances of the six benchmarks, plus KDE."""
    from repro.bench.workloads import (
        make_knn,
        make_mm,
        make_nn,
        make_pc,
        make_tj,
        make_vp,
    )
    from repro.dualtree import KernelDensity
    from repro.spaces.points import clustered_points

    cases = [
        make_tj(120),
        make_mm(48),
        make_pc(512),
        make_nn(384),
        make_knn(256),
        make_vp(256),
    ]
    kde = KernelDensity(
        clustered_points(300, clusters=8, spread=0.05, seed=3),
        clustered_points(300, clusters=8, spread=0.05, seed=4),
        bandwidth=0.1,
        epsilon=1e-4,
    )

    class KdeCase:
        """Adapter giving KDE the BenchmarkCase result/spec surface."""

        name = "KDE"
        make_spec = staticmethod(kde.make_spec)

        @staticmethod
        def result():
            return kde.result.tobytes()

    cases.append(KdeCase)
    return cases


CASES = make_cases()


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize(
    "variant", VARIANTS, ids=[label for label, *_ in VARIANTS]
)
def test_instrumented_parity(case, variant):
    """Events and results are bit-identical to the recursive executor."""
    _label, recursive_run, node_block_run, kwargs = variant

    spec = case.make_spec()
    recorder = EventRecorder()
    recursive_run(spec, recorder, **kwargs)
    recursive_events, recursive_result = recorder.events, case.result()

    spec = case.make_spec()
    recorder = EventRecorder()
    node_block_run(spec, recorder, **kwargs)

    assert recorder.events == recursive_events
    assert repr(case.result()) == repr(recursive_result)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize(
    "variant", VARIANTS, ids=[label for label, *_ in VARIANTS]
)
def test_uninstrumented_parity(case, variant):
    """The bulk/block fast paths (only reachable uninstrumented)
    produce bit-identical results."""
    _label, recursive_run, node_block_run, kwargs = variant

    spec = case.make_spec()
    recursive_run(spec, None, **kwargs)
    recursive_result = case.result()

    spec = case.make_spec()
    node_block_run(spec, None, **kwargs)

    assert repr(case.result()) == repr(recursive_result)


@pytest.mark.parametrize("batch_size", [1, 3, 64, DEFAULT_BATCH_SIZE])
def test_batch_size_invariance(batch_size):
    """Any flush granularity yields the same work sequence."""
    from repro.bench.workloads import make_pc

    case = make_pc(256)
    spec = case.make_spec()
    run_original(spec, None)
    expected = case.result()
    spec = case.make_spec()
    run_original_soa(spec, None, batch_size=batch_size)
    assert case.result() == expected


class TestBatchDispatcher:
    def _spec(self, work=None, work_batch=None, observes=False):
        return NestedRecursionSpec(
            paper_outer_tree(),
            paper_inner_tree(),
            work=work,
            work_batch=work_batch,
            truncate_inner2=(lambda o, i: False) if observes else None,
            truncation_observes_work=observes,
        )

    def test_flush_preserves_order_and_clears(self):
        seen = []
        dispatcher = BatchDispatcher(
            self._spec(work_batch=lambda os, is_: seen.extend(zip(list(os), list(is_))))
        )
        outer, inner = paper_outer_tree(), paper_inner_tree()
        dispatcher.add(outer, inner)
        dispatcher.add_many([inner, outer], [outer, inner])
        dispatcher.flush()
        assert seen == [(outer, inner), (inner, outer), (outer, inner)]
        dispatcher.flush()  # idempotent on empty
        assert len(seen) == 3

    def test_auto_flush_at_batch_size(self):
        blocks = []
        dispatcher = BatchDispatcher(
            self._spec(work_batch=lambda os, is_: blocks.append(len(os))),
            batch_size=2,
        )
        node = paper_outer_tree()
        for _ in range(5):
            dispatcher.add(node, node)
        assert blocks == [2, 2]
        dispatcher.flush()
        assert blocks == [2, 2, 1]

    def test_scalar_fallback_without_work_batch(self):
        calls = []
        dispatcher = BatchDispatcher(
            self._spec(work=lambda o, i: calls.append((o, i)))
        )
        node = paper_outer_tree()
        dispatcher.add(node, node)
        dispatcher.flush()
        assert calls == [(node, node)]

    def test_barrier_flushes_only_pending_outers(self):
        blocks = []
        dispatcher = BatchDispatcher(
            self._spec(
                work_batch=lambda os, is_: blocks.append(len(os)), observes=True
            )
        )
        outer, other = paper_outer_tree(), paper_inner_tree()
        dispatcher.add(outer, other)
        dispatcher.barrier(other)  # no pending work for `other`
        assert blocks == []
        dispatcher.barrier(outer)
        assert blocks == [1]


class TestSpecValidation:
    def test_truncate_inner2_batch_requires_truncate_inner2(self):
        with pytest.raises(SpecError):
            NestedRecursionSpec(
                balanced_tree(3),
                balanced_tree(3),
                truncate_inner2_batch=lambda o: True,
            )

    def test_truncate_inner2_batch_must_be_callable(self):
        with pytest.raises(SpecError):
            NestedRecursionSpec(
                balanced_tree(3),
                balanced_tree(3),
                truncate_inner2=lambda o, i: False,
                truncate_inner2_batch=42,
            )


class TestBlockTruncation:
    """The pre-evaluated truncation fast path must match per-pair calls."""

    def _spec_pair(self, decisions_by_outer):
        outer = balanced_tree(15)
        inner = balanced_tree(31)

        def truncate_inner2(o, i):
            return bool(decisions_by_outer(o)[i.number])

        def truncate_inner2_batch(o):
            return decisions_by_outer(o)

        collected = []
        spec = NestedRecursionSpec(
            outer,
            inner,
            work=lambda o, i: collected.append((o.number, i.number)),
            truncate_inner2=truncate_inner2,
            truncate_inner2_batch=truncate_inner2_batch,
        )
        return spec, collected

    def test_array_decisions_match_scalar(self):
        rng = np.random.default_rng(0)
        table = {}

        def decisions(o):
            if o.number not in table:
                table[o.number] = rng.random(31) < 0.4
            return table[o.number]

        spec, block_points = self._spec_pair(decisions)
        run_original_soa(spec, None)

        reference = []
        reference_spec = NestedRecursionSpec(
            spec.outer_root,
            spec.inner_root,
            work=lambda o, i: reference.append((o.number, i.number)),
            truncate_inner2=spec.truncate_inner2,
        )
        run_original(reference_spec, None)
        assert block_points == reference

    def test_uniform_true_skips_everything(self):
        spec, points = self._spec_pair(lambda o: np.ones(31, dtype=bool))
        # Replace the block form with the scalar-uniform shortcut.
        spec = NestedRecursionSpec(
            spec.outer_root,
            spec.inner_root,
            work=spec.work,
            truncate_inner2=lambda o, i: True,
            truncate_inner2_batch=lambda o: True,
        )
        run_original_soa(spec, None)
        assert points == []

    def test_none_falls_back_to_scalar_predicate(self):
        calls = []
        points = []
        spec = NestedRecursionSpec(
            balanced_tree(7),
            balanced_tree(7),
            work=lambda o, i: points.append((o.number, i.number)),
            truncate_inner2=lambda o, i: bool(calls.append(1)) or False,
            truncate_inner2_batch=lambda o: None,
        )
        run_original_soa(spec, None)
        assert len(points) == 49
        assert len(calls) == 49  # scalar predicate evaluated per pair


class TestScheduleBackends:
    def test_all_named_schedules_run_node_blocks_on_soa(self):
        from repro.kernels import TreeJoin

        for name in sorted(BY_NAME) + ["twist(cutoff=4)"]:
            tj = TreeJoin(31, 31)
            spec = replace(tj.make_spec(), work_batch_soa=None)
            get_schedule(name).run(spec, backend="soa")
            assert tj.result == tj.expected_total(), name

    def test_batched_backend_name_is_refused(self):
        """The linked-node engine is gone: its name is unknown, and the
        refusal lists the backends that exist."""
        from repro.kernels import TreeJoin

        for name in sorted(BY_NAME) + ["twist(cutoff=4)"]:
            with pytest.raises(ScheduleError, match="known: .*'soa'"):
                get_schedule(name).run(
                    TreeJoin(31, 31).make_spec(), backend="batched"
                )

    def test_backends_agree_under_instrumentation(self):
        schedule = twist_with_cutoff(8)
        spec = NestedRecursionSpec(balanced_tree(31), balanced_tree(31))
        recursive, soa = EventRecorder(), EventRecorder()
        schedule.run(spec, instrument=recursive, backend="recursive")
        schedule.run(spec, instrument=soa, backend="soa")
        assert recursive.events == soa.events

    def test_unknown_backend_rejected(self):
        spec = NestedRecursionSpec(balanced_tree(3), balanced_tree(3))
        with pytest.raises(ScheduleError):
            BY_NAME["original"].run(spec, backend="recursiv")
