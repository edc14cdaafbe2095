"""Tests for the TW2xx lowerability and independence passes."""

import json

import numpy as np
import pytest

from repro.bench.workloads import wallclock_cases
from repro.core.spec import NestedRecursionSpec
from repro.dualtree import algorithms, kde
from repro.kernels import matmul, treejoin
from repro.spaces.trees import balanced_tree
from repro.transform.lint import lower
from repro.transform.lint.lower import (
    IndependenceVerdict,
    LowerVerdict,
    lint_lower,
    static_independence,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    lower.clear_cache()
    yield
    lower.clear_cache()


#: benchmark name -> the verdict fixture checked into its module
EXPECTED = {
    "TJ": treejoin.LOWER_VERDICT,
    "MM": matmul.LOWER_VERDICT,
    "PC": algorithms.LOWER_VERDICTS["PC"],
    "NN": algorithms.LOWER_VERDICTS["NN"],
    "KNN": algorithms.LOWER_VERDICTS["KNN"],
    "VP": algorithms.LOWER_VERDICTS["VP"],
    "KDE": kde.LOWER_VERDICT,
}


def small_cases():
    return wallclock_cases(scale=0.05)


class TestBenchmarkVerdictFixtures:
    def test_every_benchmark_matches_its_checked_in_fixture(self):
        cases = small_cases()
        assert {case.name for case in cases} == set(EXPECTED)
        for case in cases:
            report = lint_lower(case.make_spec())
            assert str(report.lower) == EXPECTED[case.name]["lower"], (
                case.name,
                report.lower_reason,
            )
            assert (
                str(report.independence) == EXPECTED[case.name]["independence"]
            ), (case.name, report.independence_reason)

    def test_tj_is_fully_certified(self):
        case = next(c for c in small_cases() if c.name == "TJ")
        report = lint_lower(case.make_spec())
        assert report.lower is LowerVerdict.LOWERABLE
        assert report.independence is IndependenceVerdict.INDEPENDENT
        assert "TW209" in report.codes()
        assert "TW213" in report.codes()  # privatized reduction
        assert not report.errors and not report.warnings

    def test_mm_proof_rests_on_an_injective_column(self):
        case = next(c for c in small_cases() if c.name == "MM")
        report = lint_lower(case.make_spec())
        assert report.lower is LowerVerdict.LOWERABLE
        assert report.independence is IndependenceVerdict.INDEPENDENT
        assert "TW212" in report.codes()
        assert any("outer.data injective" in p for p in report.preconditions)

    def test_dualtree_benchmarks_stop_at_tw208(self):
        for case in small_cases():
            if case.name in ("TJ", "MM"):
                continue
            report = lint_lower(case.make_spec())
            assert "TW208" in report.codes(), case.name
            assert report.lower is LowerVerdict.NEEDS_RUNTIME_CHECK


class TestReportShape:
    def test_json_payload_is_schema_v2(self):
        case = next(c for c in small_cases() if c.name == "TJ")
        payload = lint_lower(case.make_spec()).to_json()
        assert payload["schema_version"] == 2
        assert payload["kind"] == "lowerability"
        assert payload["lower"] == "lowerable"
        assert payload["independence"] == "independent"
        assert payload["counts"] == {"errors": 0, "warnings": 0, "suppressed": 0}
        assert "work_batch_soa" in payload["kernels"]
        # dumps() round-trips.
        assert json.loads(lint_lower(case.make_spec()).dumps()) == payload

    def test_render_states_both_verdicts_and_preconditions(self):
        case = next(c for c in small_cases() if c.name == "MM")
        text = lint_lower(case.make_spec()).render()
        assert "lower: lowerable" in text
        assert "independence: independent" in text
        assert "precondition:" in text

    def test_static_independence_exposes_the_verdict_pair(self):
        case = next(c for c in small_cases() if c.name == "TJ")
        verdict, reason = static_independence(case.make_spec())
        assert verdict == "independent"
        assert reason


class TestCache:
    def test_same_spec_reuses_the_report(self):
        case = next(c for c in small_cases() if c.name == "TJ")
        spec = case.make_spec()
        assert lint_lower(spec) is lint_lower(spec)

    def test_clear_cache_recomputes(self):
        case = next(c for c in small_cases() if c.name == "TJ")
        spec = case.make_spec()
        first = lint_lower(spec)
        lower.clear_cache()
        second = lint_lower(spec)
        assert first is not second
        assert str(first.independence) == str(second.independence)

    def test_fresh_trees_invalidate_the_data_precondition(self):
        # Same kernel code, different live tree: the injectivity
        # precondition must be re-verified, not reused.
        mm = matmul.MatrixMultiply(n=12, m=12, p=4)
        first = lint_lower(mm.make_spec())
        other = matmul.MatrixMultiply(n=12, m=12, p=4)
        second = lint_lower(other.make_spec())
        assert first is not second


class TestInjectivityPrecondition:
    @staticmethod
    def _spec(outer_data, name):
        out = np.zeros(64)

        def work(o, i):
            out[o.data] = float(i.data)

        return NestedRecursionSpec(
            outer_root=balanced_tree(7, data=outer_data),
            inner_root=balanced_tree(7, data=lambda k: k),
            work=work,
            name=name,
        )

    def test_injective_column_certifies_the_write(self):
        report = lint_lower(self._spec(lambda k: k, "inj"))
        assert report.independence is IndependenceVerdict.INDEPENDENT
        assert "TW212" in report.codes()

    def test_repeating_column_refutes_independence(self):
        report = lint_lower(self._spec(lambda k: 0, "dup"))
        assert report.independence is IndependenceVerdict.DEPENDENT
        assert "TW210" in report.codes()
        assert "repeats value" in report.independence_reason or any(
            "repeats value" in d.message for d in report.diagnostics
        )


class TestQuarantinedRegressions:
    """Counterexamples found while tuning the pass, pinned forever.

    Each of these once produced a *wrong* verdict; the pass must stay
    conservative (never ``dependent`` for a spec the dynamic witness
    accepts) without these specific false alarms coming back.
    """

    def test_nn_fresh_allocation_writes_are_not_cross_task_overlaps(self):
        # NN's rules allocate scratch arrays (np.ones/np.zeros) and
        # write into them; a fresh buffer is task-local by birth and
        # once mis-fired TW210 ("dependent").
        case = next(c for c in small_cases() if c.name == "NN")
        report = lint_lower(case.make_spec())
        assert report.independence is not IndependenceVerdict.DEPENDENT

    def test_knn_scalar_indexed_state_is_unknown_not_const(self):
        # KNN/VP index per-query arrays by a scalar *variable*
        # (self.kth_dist[query]); classifying that as a constant
        # location once mis-fired TW210.  It must stay unresolved
        # (needs-runtime-check), never a false refutation.
        for name in ("KNN", "VP"):
            case = next(c for c in small_cases() if c.name == name)
            report = lint_lower(case.make_spec())
            assert (
                report.independence is IndependenceVerdict.NEEDS_RUNTIME_CHECK
            ), name
