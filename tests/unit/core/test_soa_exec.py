"""Parity and unit tests for the SoA explicit-stack executors.

Same contract as the node-block suite (``test_batched.py``): for every
schedule configuration the instrument event stream and the computed
results must be bit-identical to the recursive executors — on top of
which the SoA engine must be *layout-independent* (every storage
linearization produces the same events) and expose the
``backend="soa"`` / ``backend="auto"`` surface through the schedule
registry.
"""

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
from repro.core.backend_select import choose_backend, resolve_backend
from repro.core.batched import DEFAULT_BATCH_SIZE
from repro.core.instruments import Instrument
from repro.core.schedules import BY_NAME, get_schedule, twist_with_cutoff
from repro.core.soa_exec import PositionDispatcher
from repro.errors import ScheduleError, SpecError
from repro.spaces import balanced_tree, soa_view
from repro.spaces.soa import LINEARIZATIONS


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


#: (label, recursive runner, soa runner, kwargs) for every schedule
#: configuration under test.
VARIANTS = [
    ("original", run_original, run_original_soa, {}),
    ("interchange", run_interchanged, run_interchanged_soa, {}),
    (
        "interchange+counters+subtree",
        run_interchanged,
        run_interchanged_soa,
        {"use_counters": True, "subtree_truncation": True},
    ),
    ("twist", run_twisted, run_twisted_soa, {}),
    ("twist+counters", run_twisted, run_twisted_soa, {"use_counters": True}),
    (
        "twist(cutoff=16)-subtree",
        run_twisted,
        run_twisted_soa,
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
    _label, recursive_run, soa_run, kwargs = variant

    spec = case.make_spec()
    recorder = EventRecorder()
    recursive_run(spec, recorder, **kwargs)
    recursive_events, recursive_result = recorder.events, case.result()

    spec = case.make_spec()
    recorder = EventRecorder()
    soa_run(spec, recorder, **kwargs)

    assert recorder.events == recursive_events
    assert repr(case.result()) == repr(recursive_result)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize(
    "variant", VARIANTS, ids=[label for label, *_ in VARIANTS]
)
def test_uninstrumented_parity(case, variant):
    """The bulk/block fast paths (only reachable uninstrumented)
    produce bit-identical results."""
    _label, recursive_run, soa_run, kwargs = variant

    spec = case.make_spec()
    recursive_run(spec, None, **kwargs)
    recursive_result = case.result()

    spec = case.make_spec()
    soa_run(spec, None, **kwargs)

    assert repr(case.result()) == repr(recursive_result)


@pytest.mark.parametrize("order", LINEARIZATIONS)
@pytest.mark.parametrize(
    "case", CASES[:1] + CASES[3:4] + CASES[-1:], ids=lambda c: c.name
)
def test_layout_independence(case, order):
    """Every storage linearization yields identical events and results.

    Exercised on TJ (positions mode), NN (inline mode), and KDE
    (stateful Score) under the twist schedule — the traversal runs in
    rank space, so the layout may only change memory order, never
    observable behavior.
    """
    spec = case.make_spec()
    recorder = EventRecorder()
    run_twisted(spec, recorder)
    expected_events, expected_result = recorder.events, case.result()

    spec = case.make_spec()
    recorder = EventRecorder()
    run_twisted_soa(spec, recorder, order=order)
    assert recorder.events == expected_events
    assert repr(case.result()) == repr(expected_result)

    spec = case.make_spec()
    run_twisted_soa(spec, None, order=order)
    assert repr(case.result()) == repr(expected_result)


@pytest.mark.parametrize("batch_size", [1, 3, 64, DEFAULT_BATCH_SIZE])
def test_batch_size_invariance(batch_size):
    """Any flush granularity yields the same results (both the node
    dispatcher on PC and the position dispatcher on TJ)."""
    from repro.bench.workloads import make_pc, make_tj

    for case in (make_pc(256), make_tj(63)):
        spec = case.make_spec()
        run_original(spec, None)
        expected = case.result()
        spec = case.make_spec()
        run_original_soa(spec, None, batch_size=batch_size)
        assert case.result() == expected, case.name


def test_bulk_twist_preserves_work_order():
    """The collapsed bulk twist engine must emit work in the exact
    order of the recursive twist (the dispatch decisions it resolves
    at push time are static, so only the order could go wrong)."""
    for cutoff in (None, 4):
        recursive_points, soa_points = [], []
        outer, inner = balanced_tree(31), balanced_tree(57)
        run_twisted(
            NestedRecursionSpec(
                outer,
                inner,
                work=lambda o, i: recursive_points.append(
                    (o.number, i.number)
                ),
            ),
            cutoff=cutoff,
        )
        run_twisted_soa(
            NestedRecursionSpec(
                outer,
                inner,
                work=lambda o, i: soa_points.append((o.number, i.number)),
            ),
            cutoff=cutoff,
        )
        assert soa_points == recursive_points


class TestPositionDispatcher:
    def _views(self):
        return soa_view(balanced_tree(7)), soa_view(balanced_tree(7))

    def test_flush_preserves_order_and_clears(self):
        seen = []
        outer, inner = self._views()
        dispatcher = PositionDispatcher(
            lambda o_view, i_view, os, is_: seen.extend(
                zip(list(os), list(is_))
            ),
            outer,
            inner,
        )
        dispatcher.add(0, 1)
        dispatcher.add(2, 3)
        dispatcher.flush()
        assert seen == [(0, 1), (2, 3)]
        dispatcher.flush()  # idempotent on empty
        assert len(seen) == 2

    def test_auto_flush_at_batch_size(self):
        blocks = []
        outer, inner = self._views()
        dispatcher = PositionDispatcher(
            lambda o_view, i_view, os, is_: blocks.append(len(os)),
            outer,
            inner,
            batch_size=2,
        )
        for k in range(5):
            dispatcher.add(k, k)
        assert blocks == [2, 2]
        dispatcher.flush()
        assert blocks == [2, 2, 1]

    def test_flush_passes_the_packed_views(self):
        captured = {}
        outer, inner = self._views()
        dispatcher = PositionDispatcher(
            lambda o_view, i_view, os, is_: captured.update(
                outer=o_view, inner=i_view
            ),
            outer,
            inner,
        )
        dispatcher.add(0, 0)
        dispatcher.flush()
        assert captured["outer"] is outer
        assert captured["inner"] is inner


class TestScheduleBackends:
    def test_all_named_schedules_offer_soa_backend(self):
        from repro.kernels import TreeJoin

        for name in sorted(BY_NAME) + ["twist(cutoff=4)"]:
            for order in LINEARIZATIONS:
                tj = TreeJoin(31, 31)
                spec = tj.make_spec()
                get_schedule(name).run(spec, backend="soa", order=order)
                assert tj.result == tj.expected_total(), (name, order)

    def test_backends_agree_under_instrumentation(self):
        schedule = twist_with_cutoff(8)
        spec = NestedRecursionSpec(balanced_tree(31), balanced_tree(31))
        recursive, soa = EventRecorder(), EventRecorder()
        schedule.run(spec, instrument=recursive, backend="recursive")
        schedule.run(spec, instrument=soa, backend="soa")
        assert recursive.events == soa.events

    def test_auto_backend_runs_and_matches(self):
        from repro.kernels import TreeJoin

        tj = TreeJoin(200, 200)
        spec = tj.make_spec()
        get_schedule("twist").run(spec, backend="auto")
        assert tj.result == tj.expected_total()

    def test_unknown_backend_rejected(self):
        spec = NestedRecursionSpec(balanced_tree(3), balanced_tree(3))
        with pytest.raises(ScheduleError):
            BY_NAME["original"].run(spec, backend="recursiv")

    def test_unknown_order_rejected(self):
        spec = NestedRecursionSpec(balanced_tree(3), balanced_tree(3))
        with pytest.raises(SpecError, match="unknown linearization"):
            BY_NAME["original"].run(spec, backend="soa", order="zorder")


class TestChooseBackend:
    def test_tiny_spaces_stay_recursive(self):
        spec = NestedRecursionSpec(balanced_tree(15), balanced_tree(15))
        choice = choose_backend(spec)
        assert choice.backend == "recursive"
        assert choice.features["points"] == 225

    def test_stateful_truncation_picks_soa(self):
        from repro.bench.workloads import make_nn

        choice = choose_backend(make_nn(512).make_spec())
        assert choice.backend == "soa"
        assert choice.features["observes_work"]

    def test_soa_native_lowerable_work_picks_compiled(self):
        from repro.bench.workloads import make_tj

        choice = choose_backend(make_tj(200).make_spec())
        assert choice.backend == "compiled"
        assert choice.features["has_work_batch_soa"]
        assert choice.features["lowerable"]
        assert choice.order == "veb"

    def test_unlowerable_soa_native_work_falls_back_to_soa(self, monkeypatch):
        from repro.bench.workloads import make_tj
        from repro.core import backend_select

        monkeypatch.setattr(
            backend_select,
            "_compiled_eligible",
            lambda spec: (False, "forced refusal (test)", ("TW208",)),
        )
        choice = choose_backend(make_tj(200).make_spec())
        assert choice.backend == "soa"
        assert choice.order == "veb"
        assert "compiled refused" in choice.reason
        # The refusing analyzer's codes land in the evidence trail.
        assert "TW208" in choice.evidence

    def test_stateless_irregular_defaults_to_soa(self):
        from repro.bench.workloads import make_pc

        choice = choose_backend(make_pc(512).make_spec())
        assert choice.backend == "soa"
        assert choice.order == "preorder"
        assert choice.features["truncation_density"] is not None

    def test_probe_never_calls_work_or_stateful_predicates(self):
        calls = []
        spec = NestedRecursionSpec(
            balanced_tree(127),
            balanced_tree(127),
            work=lambda o, i: calls.append("work"),
            truncate_inner2=lambda o, i: calls.append("t2") or False,
            truncation_observes_work=True,
        )
        choose_backend(spec)
        assert calls == []

    def test_resolve_backend(self):
        spec = NestedRecursionSpec(balanced_tree(3), balanced_tree(3))
        assert resolve_backend(spec, "original", "soa") == "soa"
        assert resolve_backend(spec, "original", "auto") == "recursive"
        with pytest.raises(ScheduleError):
            resolve_backend(spec, "original", "fastest")
