"""Regression tests for the selector's full-choice plumbing.

Three once-lossy seams, each pinned here:

1. ``backend="auto"`` used to resolve to a *string*, discarding the
   selector's ``order`` recommendation — auto-picked SoA ran in
   default preorder even when the evidence said veb.  The schedule
   runner must now execute the recommended order end to end (and an
   explicitly pinned order must still win).
2. ``_refuse_unproven`` used to rebuild the downgraded
   :class:`BackendChoice` without ``order``, silently resetting it.
   Its only downgrade is now to ``recursive``: the analyzer's
   ``batched`` verdict names the node-block dispatch, not a backend
   ``auto`` can pick.
3. The conformance lookup used to swallow analyzer exceptions —
   selection silently proceeded with zero conformance evidence.  The
   failure now surfaces as a one-shot ``RuntimeWarning`` plus a
   ``features["conformance_error"]`` entry.

Plus the ``schedule_name`` contract: it is recorded as evidence but
never changes the verdict (the calibration found schedule-independent
winners), and the docstring says exactly that.
"""

import warnings

import pytest

from repro.bench.workloads import make_tj
from repro.core import backend_select
from repro.core.backend_select import (
    BackendChoice,
    _reset_conformance_warning,
    choose_backend,
    clear_choice_cache,
    resolve_backend,
    resolve_backend_choice,
)
from repro.core.schedules import Schedule
from repro.errors import ScheduleError


def _spy_schedule(log):
    """A schedule whose runners record (backend, order) calls."""

    def runner(backend):
        def run(spec, instrument=None, order="preorder", **kwargs):
            log.append((backend, order))

        return run

    recursive = lambda spec, instrument=None: log.append(("recursive", None))
    return Schedule("spy", recursive, runner("soa"), runner("compiled"))


class TestAutoOrderPlumbing:
    def test_executed_order_matches_the_recommendation(self, monkeypatch):
        """The headline regression: auto resolves to the selector's
        backend *and* runs it in the selector's recommended order."""
        monkeypatch.setattr(
            backend_select,
            "choose_backend",
            lambda spec, schedule_name="original", **kwargs: BackendChoice(
                "soa", "spy", {}, order="veb"
            ),
        )
        log = []
        _spy_schedule(log).run(make_tj(64).make_spec(), backend="auto")
        assert log == [("soa", "veb")]

    def test_auto_compiled_inherits_the_recommendation_too(self, monkeypatch):
        monkeypatch.setattr(
            backend_select,
            "choose_backend",
            lambda spec, schedule_name="original", **kwargs: BackendChoice(
                "compiled", "spy", {}, order="veb"
            ),
        )
        log = []
        _spy_schedule(log).run(make_tj(64).make_spec(), backend="auto")
        assert log == [("compiled", "veb")]

    def test_a_pinned_order_beats_the_recommendation(self, monkeypatch):
        monkeypatch.setattr(
            backend_select,
            "choose_backend",
            lambda spec, schedule_name="original", **kwargs: BackendChoice(
                "soa", "spy", {}, order="veb"
            ),
        )
        log = []
        _spy_schedule(log).run(
            make_tj(64).make_spec(), backend="auto", order="bfs"
        )
        assert log == [("soa", "bfs")]

    def test_resolve_backend_choice_returns_the_whole_verdict(self):
        spec = make_tj(200).make_spec()
        choice = resolve_backend_choice(spec, "twist", "auto")
        assert choice.backend == "compiled"
        assert choice.order == "veb"
        assert choice.features["schedule"] == "twist"

    def test_explicit_names_resolve_to_a_neutral_order(self):
        spec = make_tj(200).make_spec()
        choice = resolve_backend_choice(spec, "original", "soa")
        assert (choice.backend, choice.order) == ("soa", "preorder")
        assert resolve_backend(spec, "original", "soa") == "soa"
        with pytest.raises(ScheduleError, match="unknown backend"):
            resolve_backend_choice(spec, "original", "warp-drive")


class TestRefuseUnprovenCarriesOrder:
    def test_unsafe_soa_downgrades_to_recursive_despite_safe_batched(
        self, force_conformance
    ):
        force_conformance(batched="safe", soa="unsafe")
        choice = choose_backend(make_tj(200).make_spec())
        assert choice.backend == "recursive"
        assert choice.order == "veb"  # evidence about the spec, kept

    def test_downgrade_to_recursive_keeps_order(self, force_conformance):
        force_conformance(batched="unsafe", soa="unsafe")
        choice = choose_backend(make_tj(200).make_spec())
        assert choice.backend == "recursive"
        assert choice.order == "veb"

    def test_compiled_stands_or_falls_with_the_soa_verdict(
        self, force_conformance
    ):
        """compiled executes the same work_batch_soa kernel, so an
        unsafe soa verdict must also take compiled off the table."""
        force_conformance(batched="safe", soa="unsafe")
        choice = choose_backend(make_tj(200).make_spec())
        assert choice.backend not in ("soa", "compiled")


class TestEvidencePlumbing:
    """``BackendChoice.evidence`` must cite the codes behind a pick.

    Two once-lossy seams: auto selections used to carry no static
    evidence at all (the TW30x locality prior now rides on every
    path), and ``_refuse_unproven`` downgrades used to name only the
    offending backend, not the analyzer codes that refuted it.
    """

    def test_every_auto_selection_carries_a_locality_prior(self):
        from repro.bench.workloads import wallclock_cases

        for case in wallclock_cases(0.25):
            choice = choose_backend(case.make_spec())
            tw3 = [
                code for code in choice.evidence if code.startswith("TW3")
            ]
            assert tw3, (
                f"{case.name}: auto selection carries no TW30x evidence "
                f"(got {choice.evidence})"
            )

    def test_evidence_has_no_duplicates(self):
        choice = choose_backend(make_tj(200).make_spec())
        assert len(choice.evidence) == len(set(choice.evidence))

    def test_downgrade_carries_the_full_conformance_code_list(
        self, force_conformance
    ):
        """A forced downgrade must cite every code the conformance
        analyzer raised on the spec — not just the refused backend."""
        from repro.bench.workloads import wallclock_cases
        from repro.transform.lint import lint_spec

        force_conformance(batched="unsafe", soa="unsafe")
        clear_choice_cache()
        case = next(c for c in wallclock_cases(0.25) if c.name == "KDE")
        spec = case.make_spec()
        expected = lint_spec(spec).codes()
        assert expected  # KDE genuinely raises TW1xx codes
        choice = choose_backend(spec)
        assert choice.backend == "recursive"
        assert expected <= set(choice.evidence)
        # The locality prior survives the downgrade rebuild.
        assert any(code.startswith("TW3") for code in choice.evidence)

    def test_downgrade_despite_safe_batched_keeps_evidence_too(
        self, force_conformance
    ):
        force_conformance(batched="safe", soa="unsafe")
        clear_choice_cache()
        choice = choose_backend(make_tj(200).make_spec())
        assert choice.backend == "recursive"
        assert any(code.startswith("TW3") for code in choice.evidence)

    def test_features_expose_the_locality_verdicts(self):
        choice = choose_backend(make_tj(200).make_spec())
        locality = choice.features.get("locality")
        assert isinstance(locality, dict)
        assert set(locality) == {
            "interchange", "twist", "layout:veb", "layout:bfs",
        }


class TestStatelessSpecsRunSoa:
    """Rule 6: a stateless spec without SoA-native work (PC) runs the
    SoA engine's node-block mode, in preorder, under every schedule."""

    @pytest.mark.parametrize("schedule", ["original", "twist"])
    def test_pc_picks_soa_in_preorder(self, schedule):
        from repro.bench.workloads import make_pc

        choice = choose_backend(make_pc(512).make_spec(), schedule)
        assert (choice.backend, choice.order) == ("soa", "preorder")
        assert "node-block" in choice.reason

    def test_known_backends_no_longer_list_batched(self):
        assert backend_select.KNOWN_BACKENDS == (
            "recursive", "soa", "compiled", "parallel",
        )
        with pytest.raises(ScheduleError, match="'soa'"):
            resolve_backend_choice(make_tj(64).make_spec(), "twist", "batched")


class TestScheduleNameContract:
    def test_schedule_is_recorded_but_never_changes_the_verdict(self):
        tj = make_tj(200)
        on_original = choose_backend(tj.make_spec(), "original")
        on_twist = choose_backend(tj.make_spec(), "twist")
        assert (on_original.backend, on_original.order) == (
            on_twist.backend,
            on_twist.order,
        )
        assert on_original.features["schedule"] == "original"
        assert on_twist.features["schedule"] == "twist"

    def test_the_contract_is_documented(self):
        assert "recorded" in choose_backend.__doc__
        assert "schedule-independent" in choose_backend.__doc__


class TestConformanceErrorObservability:
    @pytest.fixture(autouse=True)
    def _rearm(self):
        _reset_conformance_warning()
        yield
        _reset_conformance_warning()

    def _crash_analyzer(self, monkeypatch):
        import repro.transform.lint.backend as lint_backend

        def boom(spec, **kwargs):
            raise RuntimeError("analyzer exploded (test stub)")

        monkeypatch.setattr(lint_backend, "lint_spec", boom)

    def test_analyzer_crash_warns_once_and_lands_in_features(
        self, monkeypatch
    ):
        self._crash_analyzer(monkeypatch)
        with pytest.warns(RuntimeWarning, match="analyzer failed"):
            choice = choose_backend(make_tj(200).make_spec())
        # A crash proves nothing: the vectorized pick is refused, and
        # the evidence gap is on the record instead of silently absent.
        assert "analyzer exploded" in choice.features["conformance_error"]
        assert choice.backend == "recursive"
        assert "conformance" in choice.reason
        assert "analyzer exploded" in choice.reason
        # One-shot: the second selection must not warn again.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            second = choose_backend(make_tj(200).make_spec())
        assert [w for w in caught if w.category is RuntimeWarning] == []
        assert "conformance_error" in second.features
        assert second.backend == "recursive"

    def test_clean_runs_record_no_error(self):
        choice = choose_backend(make_tj(200).make_spec())
        assert "conformance_error" not in choice.features


class TestChoiceCache:
    """Probe-once memoization keyed by finalized-tree identity.

    The serving steady state re-specs the same resident trees for
    every admitted batch; the second selection must return the pinned
    verdict with zero probe work.
    """

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_choice_cache()
        yield
        clear_choice_cache()

    def _counting_probe(self, monkeypatch):
        calls = {"probes": 0}
        real = backend_select.probe_features

        def counting(spec):
            calls["probes"] += 1
            return real(spec)

        monkeypatch.setattr(backend_select, "probe_features", counting)
        return calls

    def test_second_selection_does_zero_probe_work(self, monkeypatch):
        calls = self._counting_probe(monkeypatch)
        tj = make_tj(200)
        first = choose_backend(tj.make_spec())
        assert calls["probes"] == 1
        # A *fresh spec instance* over the same finalized trees — the
        # per-batch re-spec a resident service does.
        second = choose_backend(tj.make_spec())
        assert calls["probes"] == 1
        assert second is first  # the pinned BackendChoice, not a copy

    def test_schedule_name_is_part_of_the_key(self, monkeypatch):
        calls = self._counting_probe(monkeypatch)
        tj = make_tj(200)
        choose_backend(tj.make_spec(), "original")
        choose_backend(tj.make_spec(), "twist")
        assert calls["probes"] == 2

    def test_different_trees_never_share_an_entry(self, monkeypatch):
        calls = self._counting_probe(monkeypatch)
        choose_backend(make_tj(200).make_spec())
        choose_backend(make_tj(200).make_spec())
        assert calls["probes"] == 2

    def test_explicit_features_bypass_the_cache(self, monkeypatch):
        tj = make_tj(200)
        pinned = choose_backend(tj.make_spec())
        features = dict(pinned.features)
        bypass = choose_backend(tj.make_spec(), features=features)
        assert bypass is not pinned

    def test_clear_restores_probing(self, monkeypatch):
        calls = self._counting_probe(monkeypatch)
        tj = make_tj(200)
        choose_backend(tj.make_spec())
        clear_choice_cache()
        choose_backend(tj.make_spec())
        assert calls["probes"] == 2

    def test_cache_does_not_pin_dead_trees(self):
        import gc
        import weakref

        tj = make_tj(200)
        spec = tj.make_spec()
        root_ref = weakref.ref(spec.outer_root)
        choose_backend(spec)
        del tj, spec
        gc.collect()
        # Only weakrefs in the cache: the trees must be collectable.
        assert root_ref() is None
