"""Acceptance tests: the TW21x static proof replaces the warm-up probe.

The contract: on a multi-core host, ``choose_backend`` must select the
parallel backend for a big proven-independent space with *zero*
dynamic warm-up runs — the static affine-footprint proof alone opens
the gate.  TJ and MM are lowerable, so they normally run the fused
``compiled`` backend ahead of the pool; the selection tests refuse
that gate to reach the parallel rule.  The tests enforce "zero"
literally by replacing each plan's ``make_probe`` with a tripwire that
fails the test if it is ever called.
"""

import os

import pytest

import repro.core.backend_select as backend_select
from repro.core import parallel_exec
from repro.core.parallel_exec import check_outer_independence
from repro.kernels import MatrixMultiply, TreeJoin
from repro.transform.lint import lower


@pytest.fixture(autouse=True)
def fresh_proof_state():
    parallel_exec._INDEPENDENCE_CACHE.clear()
    lower.clear_cache()
    yield
    parallel_exec._INDEPENDENCE_CACHE.clear()
    lower.clear_cache()


def sabotage_probe(spec):
    """Make any warm-up run a loud failure instead of a silent cost."""

    def tripwire():
        raise AssertionError(
            "dynamic warm-up probe ran despite a static proof"
        )

    spec.parallel_plan.make_probe = tripwire
    return spec


class TestZeroProbeSelection:
    def test_tj_selects_parallel_with_no_warmup_run(
        self, monkeypatch, refuse_compiled
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        spec = sabotage_probe(TreeJoin(1023, 1023).make_spec())
        choice = backend_select.choose_backend(spec)
        assert choice.backend == "parallel"
        assert "statically" in choice.reason
        assert "no warm-up probe" in choice.reason

    def test_mm_selects_parallel_with_no_warmup_run(
        self, monkeypatch, refuse_compiled
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # MM's default full-scale space (384x384) sits below the
        # 1M-point parallel threshold; lower the bar rather than build
        # a 1000x1000 matrix product in a unit test.
        monkeypatch.setattr(backend_select, "PARALLEL_SPACE_POINTS", 100_000)
        spec = sabotage_probe(MatrixMultiply(n=384, m=384, p=4).make_spec())
        choice = backend_select.choose_backend(spec)
        assert choice.backend == "parallel"
        assert "statically" in choice.reason
        assert "no warm-up probe" in choice.reason


class TestStaticGate:
    def test_static_proof_skips_the_probe_entirely(self):
        spec = sabotage_probe(TreeJoin(63, 63).make_spec())
        proven, why = check_outer_independence(spec.parallel_plan, spec)
        assert proven
        assert "statically" in why
        assert "TW21x" in why

    def test_static_verdict_is_cached_per_witness_key(self):
        spec = sabotage_probe(TreeJoin(63, 63).make_spec())
        first = check_outer_independence(spec.parallel_plan, spec)
        assert spec.parallel_plan.witness_key in parallel_exec._INDEPENDENCE_CACHE
        # Second call: cache hit, no re-analysis, no probe.
        assert check_outer_independence(spec.parallel_plan, spec) == first

    def test_without_spec_the_dynamic_witness_still_runs(self):
        # No spec handed over -> no static pass; the probe is the
        # only evidence and must actually run.
        ran = {"count": 0}
        spec = TreeJoin(63, 63).make_spec()
        original = spec.parallel_plan.make_probe

        def counting_probe():
            ran["count"] += 1
            return original()

        spec.parallel_plan.make_probe = counting_probe
        proven, why = check_outer_independence(spec.parallel_plan)
        assert proven
        assert ran["count"] == 1
        assert "witness run" in why

    def test_unprovable_spec_falls_back_to_the_dynamic_witness(self):
        # An opaque side effect drops the static verdict below
        # "independent"; the gate must then consult the probe rather
        # than trusting (or inverting) the partial static answer.
        spec = TreeJoin(63, 63).make_spec()
        shared: dict = {}

        def opaque_work(o, i):
            shared[id(o)] = i

        spec.work = opaque_work
        verdict, _reason = lower.static_independence(spec)
        assert verdict != "independent"
        ran = {"count": 0}
        original = spec.parallel_plan.make_probe

        def counting_probe():
            ran["count"] += 1
            return original()

        spec.parallel_plan.make_probe = counting_probe
        proven, _why = check_outer_independence(spec.parallel_plan, spec)
        assert proven  # the real TJ probe is clean
        assert ran["count"] == 1

    def test_run_parallel_accepts_the_static_proof(self):
        tj = TreeJoin(63, 63)
        expected = tj.expected_total()
        spec = sabotage_probe(tj.make_spec())
        parallel_exec.run_parallel(
            spec, engine="thread", max_workers=2
        )
        assert tj.result == expected
