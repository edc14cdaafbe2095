"""Admission-batcher behavior: flush causes, demuxing, failure paths.

``run_batch`` is stubbed with plain functions so these tests pin the
*admission* semantics — what gets grouped, when a group flushes, and
how results and exceptions land back on the awaiting callers — without
building trees.
"""

import asyncio

import pytest

from repro.errors import SpecError
from repro.serve.batcher import AdmissionBatcher
from repro.serve.protocol import CountQuery, KNNQuery, NNQuery


def run(coroutine):
    return asyncio.run(coroutine)


def echo_batch(queries):
    """A run_batch stub answering each query with its own point."""
    return [query.point for query in queries]


class TestFlushCauses:
    def test_full_batch_flushes_without_waiting(self):
        ticks = []

        def record_batch(queries):
            ticks.append(len(queries))
            return echo_batch(queries)

        async def scenario():
            # A long hold: only the size trigger can flush in time.
            batcher = AdmissionBatcher(
                record_batch, max_batch=4, max_hold_s=30.0
            )
            results = await asyncio.gather(
                *(batcher.submit(NNQuery((float(i),))) for i in range(4))
            )
            return batcher, results

        batcher, results = run(scenario())
        assert ticks == [4]
        assert results == [(float(i),) for i in range(4)]
        assert batcher.full_flushes == 1
        assert batcher.timer_flushes == 0

    def test_straggler_flushes_on_the_hold_timer(self):
        async def scenario():
            batcher = AdmissionBatcher(
                echo_batch, max_batch=100, max_hold_s=0.01
            )
            result = await batcher.submit(NNQuery((1.5,)))
            return batcher, result

        batcher, result = run(scenario())
        assert result == (1.5,)
        assert batcher.timer_flushes == 1
        assert batcher.full_flushes == 0

    def test_incompatible_queries_never_share_a_tick(self):
        ticks = []

        def record_batch(queries):
            ticks.append({type(query).__name__ for query in queries})
            return echo_batch(queries)

        async def scenario():
            batcher = AdmissionBatcher(
                record_batch, max_batch=100, max_hold_s=0.01
            )
            await asyncio.gather(
                batcher.submit(NNQuery((1.0,))),
                batcher.submit(CountQuery((2.0,), 0.3)),
                batcher.submit(KNNQuery((3.0,), 5)),
                batcher.submit(KNNQuery((4.0,), 9)),  # different k
            )
            return batcher

        batcher = run(scenario())
        assert all(len(kinds) == 1 for kinds in ticks)
        assert batcher.ticks == 4

    def test_results_demux_in_submission_order(self):
        async def scenario():
            batcher = AdmissionBatcher(
                echo_batch, max_batch=8, max_hold_s=0.01
            )
            return await asyncio.gather(
                *(batcher.submit(NNQuery((float(i),))) for i in range(8))
            )

        assert run(scenario()) == [(float(i),) for i in range(8)]


class TestFailurePaths:
    def test_run_batch_exception_lands_on_every_caller(self):
        def explode(queries):
            raise RuntimeError("kernel fault")

        async def scenario():
            batcher = AdmissionBatcher(explode, max_batch=2, max_hold_s=30.0)
            return await asyncio.gather(
                batcher.submit(NNQuery((1.0,))),
                batcher.submit(NNQuery((2.0,))),
                return_exceptions=True,
            )

        results = run(scenario())
        assert len(results) == 2
        assert all(isinstance(result, RuntimeError) for result in results)

    def test_result_count_mismatch_is_a_spec_error(self):
        def drop_one(queries):
            return echo_batch(queries)[:-1]

        async def scenario():
            batcher = AdmissionBatcher(drop_one, max_batch=2, max_hold_s=30.0)
            return await asyncio.gather(
                batcher.submit(NNQuery((1.0,))),
                batcher.submit(NNQuery((2.0,))),
                return_exceptions=True,
            )

        results = run(scenario())
        assert all(isinstance(result, SpecError) for result in results)

    def test_bad_admission_knobs_rejected(self):
        with pytest.raises(SpecError, match="max_batch"):
            AdmissionBatcher(echo_batch, max_batch=0)
        with pytest.raises(SpecError, match="max_hold_s"):
            AdmissionBatcher(echo_batch, max_hold_s=-1.0)


class TestDrainAndStats:
    def test_drain_flushes_pending_and_awaits_inflight(self):
        async def scenario():
            batcher = AdmissionBatcher(
                echo_batch, max_batch=100, max_hold_s=30.0
            )
            # Long hold and small load: nothing would flush on its own.
            pending = [
                asyncio.ensure_future(batcher.submit(NNQuery((float(i),))))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            await batcher.drain()
            return await asyncio.gather(*pending)

        assert run(scenario()) == [(0.0,), (1.0,), (2.0,)]

    def test_stats_account_every_query(self):
        async def scenario():
            batcher = AdmissionBatcher(
                echo_batch, max_batch=2, max_hold_s=0.01
            )
            await asyncio.gather(
                *(batcher.submit(NNQuery((float(i),))) for i in range(5))
            )
            return batcher.batcher_stats()

        stats = run(scenario())
        assert stats["queries"] == 5
        # One full flush admits the first pair; the rest accumulate
        # behind the in-flight tick and drain in capped chunks on its
        # completion.
        assert stats["ticks"] == 3
        assert stats["max_tick_size"] == 2
        assert stats["full_flushes"] == 1
        assert stats["completion_flushes"] >= 1


class TestSaturationDiscipline:
    def test_backlog_accumulates_while_a_tick_executes(self):
        """The anti-collapse property: with a tick in flight, the hold
        timer must NOT flush the backlog into tiny ticks — completion
        admits it as one batch.  (Without per-group serialization the
        saturated steady state degenerates to ~1-query ticks.)"""
        import threading

        release = threading.Event()
        ticks = []

        def slow_batch(queries):
            ticks.append(len(queries))
            if len(ticks) == 1:
                release.wait(5)
            return echo_batch(queries)

        async def scenario():
            batcher = AdmissionBatcher(
                slow_batch, max_batch=100, max_hold_s=0.001
            )
            first = asyncio.ensure_future(batcher.submit(NNQuery((0.0,))))
            await asyncio.sleep(0.05)  # first tick now blocked in flight
            rest = [
                asyncio.ensure_future(batcher.submit(NNQuery((float(i),))))
                for i in range(1, 9)
            ]
            await asyncio.sleep(0.05)  # many holds elapse; no flush
            release.set()
            await asyncio.gather(first, *rest)
            return batcher

        batcher = run(scenario())
        assert ticks == [1, 8]
        assert batcher.completion_flushes == 1

    def test_completion_backlog_drains_in_capped_chunks(self):
        import threading

        release = threading.Event()
        ticks = []

        def slow_batch(queries):
            ticks.append(len(queries))
            if len(ticks) == 1:
                release.wait(5)
            return echo_batch(queries)

        async def scenario():
            batcher = AdmissionBatcher(
                slow_batch, max_batch=4, max_hold_s=0.001
            )
            first = asyncio.ensure_future(batcher.submit(NNQuery((0.0,))))
            await asyncio.sleep(0.05)
            rest = [
                asyncio.ensure_future(batcher.submit(NNQuery((float(i),))))
                for i in range(1, 7)
            ]
            await asyncio.sleep(0.05)
            release.set()
            await asyncio.gather(first, *rest)
            return batcher

        batcher = run(scenario())
        assert ticks == [1, 4, 2]
        assert batcher.max_tick_size == 4


class TestIntraTickDedup:
    def test_duplicates_execute_once_and_fan_out(self):
        ticks = []

        def record_batch(queries):
            ticks.append([query.point for query in queries])
            return echo_batch(queries)

        async def scenario():
            batcher = AdmissionBatcher(
                record_batch, max_batch=100, max_hold_s=0.01
            )
            results = await asyncio.gather(
                batcher.submit(NNQuery((1.0, 2.0))),
                batcher.submit(NNQuery((1.0, 2.0))),
                batcher.submit(NNQuery((3.0, 4.0))),
                batcher.submit(NNQuery((1.0, 2.0))),
            )
            return batcher, results

        batcher, results = run(scenario())
        # run_batch saw only the two distinct points, once each.
        assert ticks == [[(1.0, 2.0), (3.0, 4.0)]]
        assert results == [(1.0, 2.0), (1.0, 2.0), (3.0, 4.0), (1.0, 2.0)]
        # Duplicate callers share the identical demuxed object.
        assert results[0] is results[1] is results[3]
        stats = batcher.batcher_stats()
        assert stats["queries"] == 4
        assert stats["executed"] == 2
        assert stats["dedup_folded"] == 2
        assert stats["dedup_hit_rate"] == 0.5
        assert stats["max_tick_size"] == 4
        assert stats["max_distinct_tick"] == 2

    def test_same_point_different_params_stay_distinct(self):
        ticks = []

        def record_batch(queries):
            ticks.append(len(queries))
            return echo_batch(queries)

        async def scenario():
            batcher = AdmissionBatcher(
                record_batch, max_batch=100, max_hold_s=0.01
            )
            await asyncio.gather(
                batcher.submit(KNNQuery((1.0,), 3)),
                batcher.submit(KNNQuery((1.0,), 3)),
                batcher.submit(CountQuery((1.0,), 0.3)),
                batcher.submit(CountQuery((1.0,), 0.5)),
            )
            return batcher

        batcher = run(scenario())
        # k=3 dedups within its group; the two radii never share a
        # group (group_key includes the radius), so nothing folds there.
        assert batcher.dedup_folded == 1
        assert batcher.executed == 3

    def test_max_batch_caps_distinct_queries_not_callers(self):
        ticks = []

        def record_batch(queries):
            ticks.append(len(queries))
            return echo_batch(queries)

        async def scenario():
            batcher = AdmissionBatcher(
                record_batch, max_batch=2, max_hold_s=30.0
            )
            # Two distinct points fill the tick even though three
            # callers are riding them; the straggler duplicate (after
            # the full flush) drains on completion.
            results = await asyncio.gather(
                batcher.submit(NNQuery((1.0,))),
                batcher.submit(NNQuery((1.0,))),
                batcher.submit(NNQuery((2.0,))),
                batcher.submit(NNQuery((2.0,))),
            )
            return batcher, results

        batcher, results = run(scenario())
        assert ticks == [2, 1]
        assert batcher.full_flushes == 1
        # The full tick admitted three user queries over two distinct.
        assert batcher.max_tick_size == 3
        assert results == [(1.0,), (1.0,), (2.0,), (2.0,)]

    def test_dedup_exception_lands_on_every_duplicate_caller(self):
        def explode(queries):
            raise RuntimeError("kernel fault")

        async def scenario():
            batcher = AdmissionBatcher(explode, max_batch=2, max_hold_s=30.0)
            return await asyncio.gather(
                batcher.submit(NNQuery((1.0,))),
                batcher.submit(NNQuery((1.0,))),
                batcher.submit(NNQuery((2.0,))),
                return_exceptions=True,
            )

        results = run(scenario())
        assert len(results) == 3
        assert all(isinstance(result, RuntimeError) for result in results)

    def test_dedup_disabled_executes_every_caller(self):
        ticks = []

        def record_batch(queries):
            ticks.append(len(queries))
            return echo_batch(queries)

        async def scenario():
            batcher = AdmissionBatcher(
                record_batch, max_batch=100, max_hold_s=0.01, dedup=False
            )
            await asyncio.gather(
                *(batcher.submit(NNQuery((1.0,))) for _ in range(4))
            )
            return batcher

        batcher = run(scenario())
        assert ticks == [4]
        assert batcher.dedup_folded == 0
        assert batcher.executed == 4


class TestAdaptiveHold:
    def test_hold_starts_at_the_ceiling(self):
        async def scenario():
            batcher = AdmissionBatcher(
                echo_batch, max_batch=100, max_hold_s=0.01
            )
            await batcher.submit(NNQuery((1.0,)))
            return batcher.batcher_stats()

        stats = run(scenario())
        holds = stats["adaptive_hold"]
        assert list(holds) == ["nn"]
        # A single arrival gives the controller no inter-arrival sample;
        # the hold stays at the configured ceiling.
        assert holds["nn"]["hold_ms"] == 10.0
        assert holds["nn"]["ewma_interarrival_ms"] is None

    def test_dense_traffic_tightens_the_hold_below_the_ceiling(self):
        async def scenario():
            batcher = AdmissionBatcher(
                echo_batch, max_batch=4, max_hold_s=1.0
            )
            # Bursts of back-to-back arrivals: inter-arrival EWMA is
            # microseconds, so the target hold collapses far below the
            # 1 s ceiling.
            for _ in range(5):
                await asyncio.gather(
                    *(batcher.submit(NNQuery((float(i),))) for i in range(4))
                )
            return batcher.batcher_stats()

        stats = run(scenario())
        hold = stats["adaptive_hold"]["nn"]
        assert hold["ewma_interarrival_ms"] is not None
        assert hold["hold_ms"] < 1000.0

    def test_adaptive_hold_disabled_keeps_the_static_knob(self):
        async def scenario():
            batcher = AdmissionBatcher(
                echo_batch,
                max_batch=4,
                max_hold_s=0.01,
                adaptive_hold=False,
            )
            for _ in range(5):
                await asyncio.gather(
                    *(batcher.submit(NNQuery((float(i),))) for i in range(4))
                )
            return batcher.batcher_stats()

        stats = run(scenario())
        hold = stats["adaptive_hold"]["nn"]
        assert hold["hold_ms"] == 10.0
        assert hold["ewma_interarrival_ms"] is None

    def test_bad_hold_arrivals_rejected(self):
        with pytest.raises(SpecError, match="hold_arrivals"):
            AdmissionBatcher(echo_batch, hold_arrivals=0.0)


class TestAdmissionWait:
    def test_submit_returns_the_result_future(self):
        async def scenario():
            batcher = AdmissionBatcher(echo_batch, max_batch=1, max_hold_s=30.0)
            future = batcher.submit(NNQuery((2.5,)))
            assert isinstance(future, asyncio.Future)
            return await future

        assert run(scenario()) == (2.5,)

    def test_a_timer_held_query_records_about_its_hold(self):
        hold = 0.05

        async def scenario():
            batcher = AdmissionBatcher(
                echo_batch, max_batch=100, max_hold_s=hold, adaptive_hold=False
            )
            await batcher.submit(NNQuery((1.0,)))
            await batcher.submit(CountQuery((1.0,), 0.3))
            return batcher.batcher_stats()["wait_ms"]

        waits = run(scenario())
        assert sorted(waits) == ["count", "nn"]
        for wait in waits.values():
            assert wait["samples"] == 1
            # A bucket's upper edge, at most 19% above the wait itself.
            assert 1000 * hold <= wait["p50"] <= 1.5 * 1000 * hold
            assert wait["p99"] == wait["p50"]

    def test_every_duplicate_records_its_own_wait(self):
        async def scenario():
            batcher = AdmissionBatcher(echo_batch, max_batch=100, max_hold_s=0.01)
            await asyncio.gather(
                *(batcher.submit(NNQuery((1.0,))) for _ in range(5))
            )
            return batcher.batcher_stats()["wait_ms"]["nn"]

        assert run(scenario())["samples"] == 5

    def test_histogram_size_is_fixed(self):
        import sys

        async def scenario():
            batcher = AdmissionBatcher(
                echo_batch, max_batch=512, max_hold_s=0.001
            )
            first = batcher.submit(NNQuery((0.0,)))
            waits = batcher._pending[("nn",)].waits
            size = (len(waits.counts), sys.getsizeof(waits.counts))
            futures = [first] + [
                batcher.submit(NNQuery((float(i % 3000),)))
                for i in range(1, 10**5)
            ]
            await asyncio.gather(*futures)
            return batcher, waits, size

        batcher, waits, size = run(scenario())
        assert sum(waits.counts) == 10**5
        assert (len(waits.counts), sys.getsizeof(waits.counts)) == size
        assert batcher.batcher_stats()["wait_ms"]["nn"]["samples"] == 10**5
