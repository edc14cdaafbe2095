"""Unit tests for the sanitize backend (shadow execution).

The static analyzer's dynamic complement: the candidate backend runs
in lockstep with the recursive reference and the first observable
difference — event stream or payload — raises
:class:`SanitizeDivergence` with enough context to reproduce it.
The seeded bugs here are exactly the ones a static read/write-set
comparison cannot see: numerically wrong but structurally conforming
kernels, and a block truncation guard that silently drops the mask.
"""

import pytest

from repro.core.sanitize import (
    EventRecorder,
    LockstepChecker,
    SanitizeDivergence,
    SanitizeReport,
    run_sanitized,
)
from repro.core.schedules import BACKENDS, get_schedule
from repro.core.spec import NestedRecursionSpec
from repro.errors import ScheduleError
from repro.spaces.trees import balanced_tree


# ---------------------------------------------------------------------------
# Spec factories.  Kernels are real module-level closures: the sanitize
# sweep runs them, and the conformance analyzer (which several paths
# consult via backend="auto") needs retrievable source.


def make_factory(bug="none", nodes=63):
    """Fresh-spec factory plus payload probe, with an optional seeded bug.

    ``double`` scales every block contribution by two; ``drop``
    silently discards the last pair of each block.  Both conform
    structurally (same fields read and written, per-pair replay loops)
    so only the shadow execution can catch them.
    """
    state = {}

    def factory():
        root = balanced_tree(nodes, data=float)
        acc = {"total": 0.0}
        state["acc"] = acc

        def work(o, i):
            acc["total"] += o.data * i.data

        def work_batch(os, is_):
            for o, i in zip(os, is_):
                acc["total"] += o.data * i.data

        def work_batch_double(os, is_):
            for o, i in zip(os, is_):
                acc["total"] += o.data * i.data * 2.0

        def work_batch_drop(os, is_):
            kept = is_[: len(is_) - 1] if len(is_) > 1 else is_
            for o, i in zip(os, kept):
                acc["total"] += o.data * i.data

        batches = {
            "none": work_batch,
            "double": work_batch_double,
            "drop": work_batch_drop,
        }
        return NestedRecursionSpec(
            outer_root=root,
            inner_root=root,
            name="sanitize-unit",
            work=work,
            work_batch=batches[bug],
        )

    return factory, (lambda: state["acc"]["total"])


def make_masked_factory(drop_mask=False, nodes=63):
    """A truncating spec whose block guard can drop the mask.

    The scalar guard prunes odd-numbered inner subtrees.  The faithful
    block guard precomputes the same decisions; the mutant returns
    ``False`` (never truncate) — statically invisible (it reads
    *less* than the scalar guard) and only catchable on the
    uninstrumented fast path, where block truncation engages.
    """
    state = {}

    def factory():
        root = balanced_tree(nodes, data=float)
        acc = {"total": 0.0}
        state["acc"] = acc

        def work(o, i):
            acc["total"] += o.data * i.data

        def work_batch(os, is_):
            for o, i in zip(os, is_):
                acc["total"] += o.data * i.data

        def truncate_inner2(o, i):
            return i.number % 2 == 1

        def truncate_inner2_block(o):
            if drop_mask:
                return False
            return [number % 2 == 1 for number in range(nodes)]

        return NestedRecursionSpec(
            outer_root=root,
            inner_root=root,
            name="masked-unit",
            work=work,
            work_batch=work_batch,
            truncate_inner2=truncate_inner2,
            truncate_inner2_batch=truncate_inner2_block,
        )

    return factory, (lambda: state["acc"]["total"])


# ---------------------------------------------------------------------------


class TestLockstepChecker:
    CONTEXT = dict(
        spec_name="unit", backend="soa", schedule="original", kernels=[]
    )

    def test_matching_stream_passes(self):
        recorder = EventRecorder()
        recorder.op("call")
        recorder.access("outer", balanced_tree(1))
        checker = LockstepChecker(recorder.events, **self.CONTEXT)
        checker.op("call")
        checker.access("outer", balanced_tree(1))
        checker.finish()

    def test_first_mismatch_raises_with_index_and_both_events(self):
        checker = LockstepChecker([("op", "call")], **self.CONTEXT)
        with pytest.raises(SanitizeDivergence) as excinfo:
            checker.op("trunc_check")
        err = excinfo.value
        assert err.phase == "events"
        assert err.index == 0
        assert err.expected == ("op", "call")
        assert err.actual == ("op", "trunc_check")
        assert err.spec_name == "unit" and err.backend == "soa"

    def test_extra_event_beyond_recording_raises(self):
        checker = LockstepChecker([], **self.CONTEXT)
        with pytest.raises(SanitizeDivergence) as excinfo:
            checker.op("call")
        assert excinfo.value.expected is None

    def test_finish_flags_missing_tail(self):
        checker = LockstepChecker(
            [("op", "call"), ("op", "call")], **self.CONTEXT
        )
        checker.op("call")
        with pytest.raises(SanitizeDivergence) as excinfo:
            checker.finish()
        err = excinfo.value
        assert err.index == 1
        assert err.actual is None

    def test_work_events_use_node_ranks(self):
        root = balanced_tree(3)
        recorder = EventRecorder()
        recorder.work(root, root.left)
        assert recorder.events == [("work", root.number, root.left.number)]


class TestRunSanitized:
    def test_conforming_spec_passes_all_phases(self):
        factory, probe = make_factory("none")
        report = run_sanitized(factory, "original", backend="soa", probe=probe)
        assert isinstance(report, SanitizeReport)
        assert report.backend == "soa"
        assert report.phases == ["record", "lockstep", "fast-path"]
        assert report.events > 0
        assert report.engaged["work_batch"]
        payload = report.to_json()
        assert payload["spec"] == "sanitize-unit"
        assert payload["payload"] is not None

    def test_schedule_object_and_twist_also_pass(self):
        factory, probe = make_factory("none")
        report = run_sanitized(
            factory, get_schedule("twist"), backend="soa", probe=probe
        )
        assert report.backend == "soa"
        assert report.phases == ["record", "lockstep", "fast-path"]

    def test_doubled_contribution_diverges_in_payload(self):
        factory, probe = make_factory("double")
        with pytest.raises(SanitizeDivergence) as excinfo:
            run_sanitized(factory, "original", backend="soa", probe=probe)
        err = excinfo.value
        assert err.phase == "payload"
        assert err.expected != err.actual
        assert any("work_batch" in name for name in err.kernels)

    def test_dropped_pair_diverges_in_payload(self):
        factory, probe = make_factory("drop")
        with pytest.raises(SanitizeDivergence) as excinfo:
            run_sanitized(factory, "original", backend="soa", probe=probe)
        assert excinfo.value.phase == "payload"

    def test_faithful_block_guard_passes_with_truncation_engaged(self):
        factory, probe = make_masked_factory(drop_mask=False)
        report = run_sanitized(factory, "original", backend="soa", probe=probe)
        assert report.phases == ["record", "lockstep", "fast-path"]
        assert report.engaged["block_truncation"]

    def test_dropped_truncation_mask_diverges_on_fast_path(self):
        """The mutant guard truncates nothing: the instrumented
        lockstep phase (scalar guard) matches, so the divergence must
        be caught by the uninstrumented fast-path payload check."""
        factory, probe = make_masked_factory(drop_mask=True)
        with pytest.raises(SanitizeDivergence) as excinfo:
            run_sanitized(factory, "original", backend="soa", probe=probe)
        err = excinfo.value
        assert err.phase == "payload"
        assert "fast-path" in str(err)

    def test_recursive_candidate_short_circuits(self):
        """backend='auto' on a tiny space resolves to recursive: the
        candidate *is* the reference, so only the record phase runs."""
        factory, probe = make_factory("none", nodes=7)
        report = run_sanitized(factory, "original", backend="auto", probe=probe)
        assert report.backend == "recursive"
        assert report.phases == ["record"]

    def test_without_probe_payload_is_skipped(self):
        factory, _probe = make_factory("none")
        report = run_sanitized(factory, "original", backend="soa")
        assert report.phases == ["record", "lockstep"]
        assert report.payload is None


class TestScheduleIntegration:
    def test_sanitize_is_a_named_backend(self):
        assert "sanitize" in BACKENDS

    def test_schedule_run_sanitize_round_trip(self):
        factory, _probe = make_factory("none")
        get_schedule("original").run(factory(), backend="sanitize")

    def test_schedule_run_sanitize_with_factory(self):
        factory, _probe = make_factory("none")
        get_schedule("twist").run(
            factory(), backend="sanitize", spec_factory=factory
        )

    def test_observing_spec_requires_factory(self):
        """A work-observing spec cannot be re-run on stale state: the
        sanitize branch demands a fresh-spec factory."""
        root = balanced_tree(7, data=float)
        spec = NestedRecursionSpec(
            outer_root=root,
            inner_root=root,
            work=lambda o, i: None,
            truncate_inner2=lambda o, i: False,
            truncation_observes_work=True,
        )
        with pytest.raises(ScheduleError, match="spec_factory"):
            get_schedule("original").run(spec, backend="sanitize")

    def test_observing_spec_with_factory_passes(self):
        def factory():
            root = balanced_tree(31, data=float)
            acc = {"total": 0.0}

            def work(o, i):
                acc["total"] += o.data * i.data

            return NestedRecursionSpec(
                outer_root=root,
                inner_root=root,
                name="observing",
                work=work,
                truncate_inner2=lambda o, i: False,
                truncation_observes_work=True,
            )

        get_schedule("original").run(
            factory(), backend="sanitize", spec_factory=factory
        )


class TestSanitizeSweep:
    def test_sweep_over_one_benchmark_is_clean(self, tmp_path):
        from repro.bench.sanitize_sweep import (
            run_sanitize_sweep,
            write_sanitize_json,
        )

        sweep = run_sanitize_sweep(scale=0.02, benchmarks=("TJ",))
        assert sweep.ok
        assert len(sweep.runs) == 2  # 2 schedules x the soa backend
        assert all(run["spec"].startswith("TJ") for run in sweep.runs)
        text = sweep.render()
        assert "0 divergence(s)" in text
        path = write_sanitize_json(sweep, str(tmp_path / "SANITIZE.json"))
        import json

        payload = json.loads(open(path).read())
        assert payload["ok"] is True and payload["divergences"] == []

    def test_bench_cli_dispatch(self, tmp_path, capsys, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert (
            main(["sanitize", "--scale", "0.02", "--benchmark", "TJ"]) == 0
        )
        out = capsys.readouterr().out
        assert "sanitize sweep" in out
        assert (tmp_path / "SANITIZE.json").exists()
