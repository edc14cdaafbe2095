"""Unit tests for the backend-conformance analyzer (TW1xx).

Two halves:

* the built-in benchmark specs get exactly the verdicts the design
  promises (TJ/MM provably ``soa-safe``, PC/KNN/VP/KDE ``batch-safe``,
  NN ``needs-dynamic-check`` on its order-sensitive best-distance
  update);
* a mutation harness: seeded conformance bugs planted in otherwise
  well-formed kernels, each of which the analyzer must catch with the
  right diagnostic.  (The bugs a *static* analysis cannot see are
  planted in ``tests/unit/core/test_sanitize.py`` instead, where the
  shadow executor catches them.)

The kernels here are module-level functions, not strings: the analyzer
works on live function objects via ``inspect.getsource``, so the
mutants must be real, importable code.
"""

import json

import pytest

from repro.core.spec import NestedRecursionSpec
from repro.spaces.trees import balanced_tree
from repro.transform.lint import SpecVerdict, lint_spec
from repro.transform.lint.backend import SCHEMA_VERSION, clear_cache
from repro.transform.lint.kernel_ir import NODE_ROOT, extract_kernel_ir


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


# ---------------------------------------------------------------------------
# Built-in specs


def _builtin_reports(scale=0.05):
    from repro.bench.workloads import wallclock_cases

    return {
        case.name: lint_spec(case.make_spec())
        for case in wallclock_cases(scale)
    }


class TestBuiltinVerdicts:
    EXPECTED = {
        "TJ": "soa-safe",
        "MM": "soa-safe",
        "PC": "batch-safe",
        "NN": "needs-dynamic-check",
        "KNN": "batch-safe",
        "VP": "batch-safe",
        "KDE": "batch-safe",
    }

    def test_every_builtin_spec_gets_a_verdict(self):
        reports = _builtin_reports()
        assert {name: str(r.verdict) for name, r in reports.items()} == (
            self.EXPECTED
        )

    def test_provably_safe_specs_are_clean(self):
        reports = _builtin_reports()
        assert reports["TJ"].codes() == set()
        assert reports["MM"].codes() == set()

    def test_nn_order_sensitivity_is_the_named_hole(self):
        """NN's vectorized best-distance update is exactly what cannot
        be proven statically: TW108, and only on the batched backend —
        the SoA inline mode runs the scalar kernel and stays safe."""
        report = _builtin_reports()["NN"]
        assert "TW108" in report.codes()
        assert report.backends["batched"] == "needs-dynamic-check"
        assert report.backends["soa"] == "safe"
        assert report.backends["recursive"] == "safe"

    def test_stateless_dualtree_specs_carry_only_infos(self):
        reports = _builtin_reports()
        for name in ("KNN", "VP", "KDE"):
            report = reports[name]
            assert report.codes() <= {"TW107", "TW109"}
            assert report.errors == [] and report.warnings == []

    def test_staged_arrays_are_recorded_for_pc(self):
        """PC's kernels read staged leaf/bound arrays: two TW109 infos
        (work_batch and the block guard), nothing stronger."""
        report = _builtin_reports()["PC"]
        assert [d.code for d in report.diagnostics] == ["TW109", "TW109"]


# ---------------------------------------------------------------------------
# Mutation harness: seeded bugs the analyzer must catch statically.

ROOT = balanced_tree(7, data=float)


class Accumulator:
    def __init__(self):
        self.total = 0.0
        self.pairs = 0


def make_mutant(make_batch, **spec_kwargs):
    """A well-formed scalar spec wired to a (buggy) batch kernel."""
    acc = Accumulator()

    def work(o, i):
        acc.total += o.data * i.data
        acc.pairs += 1

    spec = NestedRecursionSpec(
        outer_root=ROOT,
        inner_root=ROOT,
        name="mutant",
        work=work,
        work_batch=make_batch(acc),
        **spec_kwargs,
    )
    return spec


def wrong_field(acc):
    def work_batch(os, is_):
        for o, i in zip(os, is_):
            acc.total += o.data * i.data
            acc.count = acc.pairs + 1  # writes .count, scalar writes .pairs

    return work_batch


def dropped_write(acc):
    def work_batch(os, is_):
        for o, i in zip(os, is_):
            acc.total += o.data * i.data  # .pairs never updated

    return work_batch


def retained_block(acc):
    def work_batch(os, is_):
        acc.last_block = os  # stale after the dispatcher's clear()
        for o, i in zip(os, is_):
            acc.total += o.data * i.data
            acc.pairs += 1

    return work_batch


def cleared_block(acc):
    def work_batch(os, is_):
        for o, i in zip(os, is_):
            acc.total += o.data * i.data
            acc.pairs += 1
        os.clear()  # mutates the dispatcher's block in place

    return work_batch


def captured_counter(acc):
    calls = 0

    def work_batch(os, is_):
        nonlocal calls
        calls += 1  # state smuggled across dispatches
        for o, i in zip(os, is_):
            acc.total += o.data * i.data
            acc.pairs += 1

    return work_batch


def vectorized_rmw(acc):
    def work_batch(os, is_):
        # Plain read-modify-write of shared state, neither a reduction
        # AugAssign nor a per-pair replay loop.
        acc.total = acc.total + sum(o.data * i.data for o, i in zip(os, is_))
        acc.pairs += len(os)

    return work_batch


def extra_node_read(acc):
    def work_batch(os, is_):
        for o, i in zip(os, is_):
            acc.total += o.data * i.data * (1.0 if o.size else 1.0)
            acc.pairs += 1

    return work_batch


MUTANTS = [
    ("wrong_field", wrong_field, "TW101", "unsafe"),
    ("dropped_write", dropped_write, "TW101", "unsafe"),
    ("retained_block", retained_block, "TW104", "unsafe"),
    ("cleared_block", cleared_block, "TW104", "unsafe"),
    ("captured_counter", captured_counter, "TW103", "unsafe"),
    ("vectorized_rmw", vectorized_rmw, "TW108", "needs-dynamic-check"),
    ("extra_node_read", extra_node_read, "TW102", "needs-dynamic-check"),
]


class TestMutationHarness:
    @pytest.mark.parametrize(
        "name,factory,code,verdict", MUTANTS, ids=[m[0] for m in MUTANTS]
    )
    def test_seeded_mutation_is_caught(self, name, factory, code, verdict):
        report = lint_spec(make_mutant(factory))
        assert code in report.codes(), name
        assert str(report.verdict) == verdict, name

    def test_observing_block_guard_is_refuted(self):
        """A block truncation guard on a work-observing spec (TW106):
        pre-evaluating the predicate changes its decisions."""

        def guard_scalar(o, i):
            return False

        def guard_block(o):
            return False

        spec = NestedRecursionSpec(
            outer_root=ROOT,
            inner_root=ROOT,
            name="observing-guard",
            work=lambda o, i: None,
            truncate_inner2=guard_scalar,
            truncate_inner2_batch=guard_block,
            truncation_observes_work=True,
        )
        report = lint_spec(spec)
        assert "TW106" in report.codes()
        assert str(report.verdict) == "unsafe"

    def test_clean_replay_kernel_is_proven(self):
        """The control: a faithful per-pair replay kernel passes."""

        def faithful(acc):
            def work_batch(os, is_):
                for o, i in zip(os, is_):
                    acc.total += o.data * i.data
                    acc.pairs += 1

            return work_batch

        report = lint_spec(make_mutant(faithful))
        assert report.errors == [] and report.warnings == []
        assert str(report.verdict) == "batch-safe"
        assert report.backends["batched"] == "safe"

    def test_unanalyzable_kernel_degrades_not_passes(self):
        """A kernel with no retrievable source must not be waved
        through: TW100, verdict needs-dynamic-check."""
        spec = NestedRecursionSpec(
            outer_root=ROOT,
            inner_root=ROOT,
            name="opaque",
            work=min,  # builtin: inspect.getsource fails
            work_batch=max,
        )
        report = lint_spec(spec)
        assert "TW100" in report.codes()
        assert str(report.verdict) == "needs-dynamic-check"


# ---------------------------------------------------------------------------
# The auto selector consumes the verdicts.


class TestAutoRefusal:
    def test_auto_never_selects_an_unsafe_backend(self):
        """An unsafe work_batch on a space large enough for the
        structural probe to want 'batched' gets refused."""
        from repro.core.backend_select import choose_backend

        big = balanced_tree(127, data=float)
        spec = make_spec_large_unsafe(big)
        choice = choose_backend(spec)
        verdicts = lint_spec(spec).backends
        assert verdicts["batched"] == "unsafe"
        assert choice.backend != "batched"
        assert "conformance" in choice.reason

    def test_allow_unproven_restores_structural_choice(self):
        from repro.core.backend_select import choose_backend

        big = balanced_tree(127, data=float)
        spec = make_spec_large_unsafe(big)
        refused = choose_backend(spec)
        structural = choose_backend(spec, allow_unproven=True)
        assert structural.backend == "batched"
        assert refused.backend != structural.backend

    def test_safe_specs_keep_their_structural_choice(self):
        from repro.bench.workloads import make_pc
        from repro.core.backend_select import choose_backend

        choice = choose_backend(make_pc(512).make_spec())
        assert choice.backend == "batched"

    def test_monkeypatched_unsafe_soa_downgrades(self, force_conformance):
        """Verdict wiring, isolated from the analyzer: force 'soa'
        unsafe and watch the selector reroute to a proven backend."""
        from repro.bench.workloads import make_tj
        from repro.core import backend_select

        force_conformance(batched="safe", soa="unsafe")
        choice = backend_select.choose_backend(make_tj(200).make_spec())
        assert choice.backend == "batched"
        assert "unsafe" in choice.reason

    def test_verdict_lookup_failure_is_not_fatal(self):
        """If the analyzer itself blows up (here: fed a non-spec), the
        pick falls back to the reference executors instead of crashing
        the run, and the error is on the record."""
        from repro.core import backend_select

        structural = backend_select.BackendChoice("soa", "structural", {})
        with pytest.warns(RuntimeWarning, match="analyzer failed"):
            backend_select._reset_conformance_warning()
            choice = backend_select._refuse_unproven(structural, object())
        assert choice.backend == "recursive"
        assert "AttributeError" in choice.features["conformance_error"]


def make_spec_large_unsafe(root):
    acc = Accumulator()

    def work(o, i):
        acc.total += o.data * i.data
        acc.pairs += 1

    def work_batch(os, is_):
        for o, i in zip(os, is_):
            acc.total += o.data * i.data
            acc.count = acc.pairs + 1  # TW101: wrong field

    return NestedRecursionSpec(
        outer_root=root,
        inner_root=root,
        name="large-unsafe",
        work=work,
        work_batch=work_batch,
    )


# ---------------------------------------------------------------------------
# Report shape, caching, JSON schema.


class TestReportShape:
    def test_render_names_backends_and_verdict(self):
        report = lint_spec(make_mutant(wrong_field))
        text = report.render()
        assert "backend batched: unsafe" in text
        assert "verdict: unsafe" in text
        assert "TW101" in text

    def test_to_json_schema(self):
        report = lint_spec(make_mutant(vectorized_rmw))
        payload = report.to_json()
        assert payload["schema_version"] == SCHEMA_VERSION == 2
        assert payload["kind"] == "spec-conformance"
        assert payload["spec"] == "mutant"
        assert payload["verdict"] == "needs-dynamic-check"
        assert set(payload["backends"]) == {"recursive", "batched", "soa"}
        assert set(payload["reasons"]) == set(payload["backends"])
        assert payload["counts"]["warnings"] >= 1
        assert payload["counts"]["suppressed"] == 0
        assert payload["suppressed"] == []
        roles = {k["role"] for k in payload["kernels"]}
        assert {"work", "work_batch"} <= roles
        json.dumps(payload)  # serializable end to end

    def test_kernel_footprints_are_reported(self):
        report = lint_spec(make_mutant(wrong_field))
        by_role = {k.role: k for k in report.kernels}
        assert by_role["work"].analyzable
        assert "pairs" in {
            field for (_root, field) in by_role["work"].conformance.write_keys()
        }
        assert "acc.pairs" in report.kernel_writes(by_role["work"])
        (work_json,) = [
            k for k in report.to_json()["kernels"] if k["role"] == "work"
        ]
        assert work_json["writes"] == ["acc.pairs", "acc.total"]

    def test_analyze_kernel_standalone(self):
        def work(o, i):
            o.data = o.data + i.data

        facts = extract_kernel_ir(work, "work").conformance
        assert facts.write_keys() == {(NODE_ROOT, "")}
        assert facts.node_reads == {"data"}
        assert facts.opaque_calls == [] and facts.block_escapes == []

    def test_verdict_enum_strings(self):
        assert str(SpecVerdict.BATCH_SAFE) == "batch-safe"
        assert str(SpecVerdict.SOA_SAFE) == "soa-safe"
        assert str(SpecVerdict.NEEDS_DYNAMIC_CHECK) == "needs-dynamic-check"
        assert str(SpecVerdict.UNSAFE) == "unsafe"


class TestCaching:
    def test_repeat_lint_returns_cached_report(self):
        spec = make_mutant(wrong_field)
        first = lint_spec(spec)
        second = lint_spec(spec)
        assert second is first

    def test_clear_cache_forces_reanalysis(self):
        spec = make_mutant(wrong_field)
        first = lint_spec(spec)
        clear_cache()
        assert lint_spec(spec) is not first

    def test_distinct_kernels_do_not_collide(self):
        bad = lint_spec(make_mutant(wrong_field))
        good = lint_spec(make_mutant(dropped_write))
        assert bad.codes() != set() and good.codes() != set()
        assert bad is not good
