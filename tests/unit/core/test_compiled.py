"""Parity and unit tests for the proof-gated compiled backend.

Contract under test (see :mod:`repro.core.compiled`): for every spec
the TW20x pass certifies ``lowerable``, ``backend="compiled"`` must be
*observably identical* to the SoA backend — bit-identical results on
every schedule and storage order, identical instrument event streams
when instrumented (the compiled runners delegate to the SoA engine the
moment anything is watching) — and must *refuse* every spec whose
verdict falls short, with a :class:`~repro.errors.ScheduleError` that
cites the verdict.  On top of parity: artifact caching per kernel
family, the numba tier (faked here — the CI matrix runs the real one),
and the streamed position blocks and narrow twist cache.
"""

import numpy as np
import pytest

from repro.bench.workloads import make_mm, make_tj, wallclock_cases
from repro.core.compiled import (
    artifact_info,
    clear_caches,
    compiled_artifact,
    run_original_compiled,
    run_twisted_compiled,
)
from repro.core.sanitize import EventRecorder, run_sanitized
from repro.core.schedules import BY_NAME, get_schedule, twist_with_cutoff
from repro.errors import ScheduleError
from repro.kernels import GramTable, MatrixMultiply, TreeJoin
from repro.spaces.soa import LINEARIZATIONS
from repro.transform.lint.lower import LowerVerdict, lint_lower

#: Every registered schedule plus a parameterized cutoff variant.
ALL_SCHEDULES = list(BY_NAME.values()) + [twist_with_cutoff(8)]


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Artifact/position caches must not leak between tests."""
    clear_caches()
    yield
    clear_caches()


class TestTreeJoinParity:
    """TJ is integer-exact: compiled must equal recursive *exactly*."""

    @pytest.mark.parametrize(
        "schedule", ALL_SCHEDULES, ids=lambda s: s.name
    )
    def test_matches_recursive_on_every_schedule_and_order(self, schedule):
        tj = TreeJoin(23, 17)
        schedule.run(tj.make_spec(), backend="recursive")
        expected = (tj.accumulator.total, tj.accumulator.pairs)
        assert expected[0] == tj.expected_total()
        for order in LINEARIZATIONS:
            schedule.run(tj.make_spec(), backend="compiled", order=order)
            assert (tj.accumulator.total, tj.accumulator.pairs) == expected

    def test_single_node_trees(self):
        tj = TreeJoin(1, 1)
        run_original_compiled(tj.make_spec())
        assert tj.accumulator.total == tj.expected_total()
        assert tj.accumulator.pairs == 1

    def test_instrumented_run_replays_recursive_events(self):
        """With an instrument attached the compiled runners delegate to
        the SoA engine, whose event stream is recursive-identical."""
        tj = TreeJoin(15, 7)
        for schedule in (BY_NAME["original"], BY_NAME["twist"]):
            reference = EventRecorder()
            schedule.run(tj.make_spec(), instrument=reference, backend="recursive")
            actual = EventRecorder()
            schedule.run(tj.make_spec(), instrument=actual, backend="compiled")
            assert actual.events == reference.events


class TestMatMulParity:
    """MM is float: compiled must be *bitwise* identical to soa (both
    run the same einsum), and payload-identical to recursive."""

    @pytest.mark.parametrize(
        "schedule", ALL_SCHEDULES, ids=lambda s: s.name
    )
    def test_bitwise_identical_to_soa(self, schedule):
        mm = MatrixMultiply(n=13, m=11, p=4)
        schedule.run(mm.make_spec(), backend="soa")
        reference = mm.c.copy()
        for order in LINEARIZATIONS:
            schedule.run(mm.make_spec(), backend="compiled", order=order)
            assert np.array_equal(mm.c, reference)

    def test_payload_matches_recursive(self):
        """The benchmark's own witness (``c.sum()``) across backends."""
        mm = MatrixMultiply(n=12, m=12, p=4)
        BY_NAME["twist"].run(mm.make_spec(), backend="recursive")
        expected = repr(float(mm.c.sum()))
        BY_NAME["twist"].run(mm.make_spec(), backend="compiled")
        assert repr(float(mm.c.sum())) == expected
        assert mm.max_error() < 1e-12


class TestGramParity:
    """GT writes its table elementwise: exact versus the closed form."""

    @pytest.mark.parametrize(
        "schedule", ALL_SCHEDULES, ids=lambda s: s.name
    )
    def test_exact_on_every_schedule(self, schedule):
        gt = GramTable(14, 9)
        schedule.run(gt.make_spec(), backend="compiled")
        assert gt.max_error() == 0.0

    def test_certified_lowerable(self):
        report = lint_lower(GramTable(8, 8).make_spec())
        assert report.lower is LowerVerdict.LOWERABLE


class TestProofGating:
    """compiled is selectable *only* behind a TW20x 'lowerable' verdict."""

    def test_every_wallclock_case_is_gated_by_its_verdict(self):
        """The benchmark inventory splits cleanly: lowerable specs run,
        everything else is refused with the verdict in the message."""
        schedule = BY_NAME["original"]
        seen = set()
        for case in wallclock_cases(0.02):
            spec = case.make_spec()
            verdict = lint_lower(spec).lower
            if verdict is LowerVerdict.LOWERABLE:
                schedule.run(case.make_spec(), backend="compiled")
                seen.add("ran")
            else:
                with pytest.raises(ScheduleError, match="lowerable"):
                    schedule.run(case.make_spec(), backend="compiled")
                seen.add("refused")
        assert seen == {"ran", "refused"}

    def test_refusal_cites_the_verdict(self):
        from repro.bench.workloads import make_nn

        spec = make_nn(200).make_spec()
        with pytest.raises(ScheduleError) as excinfo:
            run_twisted_compiled(spec)
        message = str(excinfo.value)
        assert "lowerable" in message
        assert "auto" in message  # points at the escape hatch


class TestSanitizeIntegration:
    def test_explicit_compiled_survives_shadow_execution(self):
        tj = TreeJoin(31, 31)
        report = run_sanitized(
            tj.make_spec,
            get_schedule("twist"),
            backend="compiled",
            probe=lambda: tj.accumulator.total,
        )
        assert report.backend == "compiled"
        assert report.phases == ["record", "lockstep", "fast-path"]

    def test_auto_sanitize_picks_and_validates_compiled(self):
        tj_case = make_tj(200)
        tj_spec = tj_case.make_spec()
        from repro.core.backend_select import choose_backend

        assert choose_backend(tj_spec).backend == "compiled"
        report = run_sanitized(
            tj_case.make_spec,
            get_schedule("original"),
            backend="auto",
            probe=tj_case.result,
        )
        assert report.backend == "compiled"

    def test_mm_auto_sanitize(self):
        mm_case = make_mm(64, p=4)
        report = run_sanitized(
            mm_case.make_spec,
            get_schedule("twist"),
            backend="auto",
            probe=mm_case.result,
        )
        assert report.backend == "compiled"
        assert report.phases == ["record", "lockstep", "fast-path"]


class TestArtifacts:
    def test_cached_per_kernel_family(self):
        tj = TreeJoin(9, 9)
        first = compiled_artifact(tj.make_spec())
        second = compiled_artifact(tj.make_spec())  # fresh accumulator
        assert first is not None
        assert first is second

    def test_fresh_spec_instances_reuse_one_artifact_correctly(self):
        """The artifact binds per *call*: a cached kernel must read the
        new spec's accumulator, not the one it was generated from."""
        tj = TreeJoin(9, 9)
        run_original_compiled(tj.make_spec())
        first = tj.accumulator.total
        run_original_compiled(tj.make_spec())  # reset accumulator
        assert tj.accumulator.total == first == tj.expected_total()

    def test_artifact_info_reports_fused_source(self):
        info = artifact_info(TreeJoin(9, 9).make_spec())
        assert info["codegen"] == "fused-source"
        assert info["jit"] in ("numpy", "numba")
        assert "_fused" in info["source"]

    def test_codegen_decline_falls_back_to_whole_run_dispatch(
        self, monkeypatch
    ):
        """LoweringUnsupported is not a refusal: the certified kernel
        runs as one whole-run dispatch instead of generated source."""
        from repro.core import compiled as compiled_mod
        from repro.transform.lower_codegen import LoweringUnsupported

        def declined(fn):
            raise LoweringUnsupported("forced decline (test)")

        monkeypatch.setattr(
            compiled_mod, "generate_fused_kernel", declined
        )
        tj = TreeJoin(15, 15)
        assert artifact_info(tj.make_spec())["codegen"] == "fallback-dispatch"
        for schedule in (BY_NAME["original"], BY_NAME["twist"]):
            schedule.run(tj.make_spec(), backend="compiled")
            assert tj.accumulator.total == tj.expected_total()


class _FakeNumba:
    """A numba stand-in: ``njit`` wraps and counts calls."""

    def __init__(self, fail=False):
        self.calls = 0
        self.fail = fail

    def njit(self, fn):
        def wrapper(*args):
            self.calls += 1
            if self.fail:
                raise TypeError("cannot type argument (fake)")
            return fn(*args)

        return wrapper


class TestNumbaTier:
    """The real numba leg runs in CI's matrix; here the import hook is
    faked so both tiers are exercised without the dependency."""

    def test_njit_tier_is_used_when_numba_imports(self, monkeypatch):
        from repro.transform import lower_codegen

        fake = _FakeNumba()
        monkeypatch.setattr(lower_codegen, "_import_numba", lambda: fake)
        tj = TreeJoin(15, 15)
        spec = tj.make_spec()
        assert artifact_info(spec)["jit"] == "numba"
        run_original_compiled(spec)
        assert fake.calls > 0
        assert tj.accumulator.total == tj.expected_total()

    def test_first_call_failure_downgrades_to_numpy_permanently(
        self, monkeypatch
    ):
        from repro.transform import lower_codegen

        fake = _FakeNumba(fail=True)
        monkeypatch.setattr(lower_codegen, "_import_numba", lambda: fake)
        tj = TreeJoin(15, 15)
        spec = tj.make_spec()
        artifact = compiled_artifact(spec)
        assert artifact.jit == "numba"
        run_original_compiled(spec)  # first call fails inside njit
        assert artifact.jit == "numpy"
        assert "first call" in artifact.jit_note
        assert tj.accumulator.total == tj.expected_total()
        calls_after_downgrade = fake.calls
        run_original_compiled(tj.make_spec())
        assert fake.calls == calls_after_downgrade  # jitted leg is gone
        assert tj.accumulator.total == tj.expected_total()

    def test_numba_absent_runs_the_numpy_tier(self, monkeypatch):
        from repro.transform import lower_codegen

        monkeypatch.setattr(lower_codegen, "_import_numba", lambda: None)
        spec = TreeJoin(9, 9).make_spec()
        info = artifact_info(spec)
        assert info["jit"] == "numpy"
        assert "numba not importable" in info["jit_note"]


class TestPositionCache:
    """Only twist sequences are cached; eviction and byte caps apply to
    them (original/interchange positions are streamed, never stored)."""

    def test_cache_is_bounded(self):
        from repro.core.compiled import _POSITIONS, _POSITIONS_CAP

        for k in range(_POSITIONS_CAP + 4):
            tj = TreeJoin(3 + k, 3)
            run_twisted_compiled(tj.make_spec())
        assert len(_POSITIONS) <= _POSITIONS_CAP

    def test_repeat_runs_hit_the_cache(self):
        from repro.core.compiled import _POSITIONS

        tj = TreeJoin(9, 9)
        run_twisted_compiled(tj.make_spec())
        size = len(_POSITIONS)
        run_twisted_compiled(tj.make_spec())  # same trees, same schedule
        assert len(_POSITIONS) == size
        assert tj.accumulator.total == tj.expected_total()

    def test_byte_cap_evicts_least_recent(self):
        from repro.core.compiled import (
            position_cache_info,
            set_position_cache_limits,
        )

        # One TJ(63,63) twist sequence is 2 x 3969 uint16 positions,
        # ~15.5 KB; a 24 KB cap fits a single entry but never two, so
        # the second insertion must evict the first even though the
        # entry cap is far away.
        previous = set_position_cache_limits(max_bytes=24 * 1024)
        try:
            run_twisted_compiled(TreeJoin(63, 63).make_spec())
            assert position_cache_info()["entries"] == 1
            run_twisted_compiled(TreeJoin(63, 63).make_spec())
            info = position_cache_info()
            assert info["entries"] == 1
            assert 0 < info["bytes"] <= info["max_bytes"]
        finally:
            set_position_cache_limits(
                max_entries=previous[0], max_bytes=previous[1]
            )

    def test_cache_info_reports_entries_and_bytes(self):
        from repro.core.compiled import position_cache_info

        tj = TreeJoin(15, 15)
        run_twisted_compiled(tj.make_spec())
        info = position_cache_info()
        assert info["entries"] == 1
        assert info["bytes"] > 0
        assert info["max_entries"] >= 1

    def test_limit_setter_validates_and_returns_previous(self):
        from repro.core.compiled import (
            position_cache_info,
            set_position_cache_limits,
        )

        with pytest.raises(ScheduleError):
            set_position_cache_limits(max_entries=0)
        with pytest.raises(ScheduleError):
            set_position_cache_limits(max_bytes=0)
        before = position_cache_info()
        previous = set_position_cache_limits(
            max_entries=before["max_entries"]
        )
        assert previous == (before["max_entries"], before["max_bytes"])

    def test_only_twist_adds_an_entry_in_narrow_arrays(self):
        from repro.core.compiled import _POSITIONS, position_cache_info

        tj = TreeJoin(23, 17)
        for schedule in ("original", "interchange"):
            BY_NAME[schedule].run(tj.make_spec(), backend="compiled")
            assert position_cache_info()["entries"] == 0
        run_twisted_compiled(tj.make_spec())
        info = position_cache_info()
        assert info["entries"] == 1
        (_ref_o, _ref_i, rows, cols), = _POSITIONS.values()
        assert rows.dtype == cols.dtype == np.uint16
        assert len(rows) == len(cols) == 23 * 17
        assert info["bytes"] == rows.nbytes + cols.nbytes

    def test_uint32_past_the_uint16_node_limit(self, monkeypatch):
        from repro.core import compiled as compiled_mod

        # 23 outer nodes sit past a limit of 20, 17 inner nodes do not.
        monkeypatch.setattr(compiled_mod, "UINT16_MAX_NODES", 20)
        tj = TreeJoin(23, 17)
        run_twisted_compiled(tj.make_spec())
        (_ref_o, _ref_i, rows, cols), = compiled_mod._POSITIONS.values()
        assert rows.dtype == np.uint32
        assert cols.dtype == np.uint16
        assert tj.accumulator.total == tj.expected_total()

    @pytest.mark.parametrize("emitted", [-1, +1], ids=["short", "long"])
    def test_pair_count_mismatch_raises(self, monkeypatch, emitted):
        from repro.core import compiled as compiled_mod

        genuine = compiled_mod._run_twisted_bulk

        def miscounting(dispatcher, *args):
            genuine(dispatcher, *args)
            if emitted < 0:
                dispatcher.filled -= 1
            else:
                dispatcher._os.append(0)
                dispatcher._is.append(0)
                dispatcher.flush()

        monkeypatch.setattr(compiled_mod, "_run_twisted_bulk", miscounting)
        with pytest.raises(ScheduleError, match="twist emitted"):
            run_twisted_compiled(TreeJoin(9, 9).make_spec())
        assert compiled_mod.position_cache_info()["entries"] == 0


#: Block constant for the streaming tests: a small prime, so block
#: edges fall mid-way through inner (and outer) runs.
SMALL_BLOCK = 7

STREAMED_SCHEDULES = [
    BY_NAME["original"],
    BY_NAME["interchange"],
    BY_NAME["twist"],
]


class TestBlockStreaming:
    """Every block partition must give the SoA backend's exact result."""

    @pytest.mark.parametrize("order", LINEARIZATIONS)
    @pytest.mark.parametrize(
        "schedule", STREAMED_SCHEDULES, ids=lambda s: s.name
    )
    def test_small_blocks_are_bit_identical_to_soa(
        self, monkeypatch, schedule, order
    ):
        from repro.core import compiled as compiled_mod

        monkeypatch.setattr(compiled_mod, "BLOCK_PAIRS", SMALL_BLOCK)
        # 5x3 pairs fit whole outer runs per block, 23x17 split them.
        for n, m in ((5, 3), (23, 17)):
            tj = TreeJoin(n, m)
            schedule.run(tj.make_spec(), backend="soa", order=order)
            expected = (tj.accumulator.total, tj.accumulator.pairs)
            schedule.run(tj.make_spec(), backend="compiled", order=order)
            assert (tj.accumulator.total, tj.accumulator.pairs) == expected
        mm = MatrixMultiply(n=13, m=11, p=4)
        schedule.run(mm.make_spec(), backend="soa", order=order)
        reference = mm.c.copy()
        schedule.run(mm.make_spec(), backend="compiled", order=order)
        assert np.array_equal(mm.c, reference)

    @pytest.mark.parametrize(
        "kind", ["original", "interchange", "twist"]
    )
    def test_blocks_are_intp_and_at_most_the_block_size(
        self, monkeypatch, kind
    ):
        from repro.core import compiled as compiled_mod

        monkeypatch.setattr(compiled_mod, "BLOCK_PAIRS", SMALL_BLOCK)
        spec = TreeJoin(23, 17).make_spec()
        _outer, _inner, blocks = compiled_mod._position_arrays(
            spec, kind, "veb"
        )
        sizes = []
        for rows, cols in blocks:
            assert rows.dtype == cols.dtype == np.intp
            assert len(rows) == len(cols)
            sizes.append(len(rows))
        assert sum(sizes) == 23 * 17
        assert max(sizes) == SMALL_BLOCK

    def test_warm_original_run_stays_small(self):
        import tracemalloc

        tj = TreeJoin(1023, 1023)
        run_original_compiled(tj.make_spec(), order="veb")  # cold
        tracemalloc.start()
        try:
            run_original_compiled(tj.make_spec(), order="veb")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tj.accumulator.total == tj.expected_total()
        assert peak < 4 * 1024 * 1024

    def test_big_trees_cache_only_a_narrow_twist(self):
        from repro.core.compiled import position_cache_info

        tj = TreeJoin(1200, 1200)
        for run in (run_original_compiled, run_twisted_compiled):
            run(tj.make_spec(), order="veb")
            run(tj.make_spec(), order="veb")
            assert tj.accumulator.total == tj.expected_total()
        assert position_cache_info()["bytes"] <= 6 * 1000 * 1000
