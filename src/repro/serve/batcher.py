"""The asyncio admission batcher (the service's front end).

Concurrent callers ``await submit(query)``; the batcher groups
pending queries by :func:`~repro.serve.protocol.group_key` and admits
a group as one service tick.  Execution is serialized **per group**
(at most one tick of a kind in flight), which makes the admission
policy self-tuning:

* while a group's tick is executing, newly admitted queries of that
  kind simply accumulate — the accumulation window is the tick's own
  execution time, so under load the next batch grows to (arrival rate
  x execution time) with no knob to tune;
* the moment a tick completes, the pending backlog is flushed as the
  next tick (in ``max_batch``-capped chunks) — the hold deadline is an
  *upper* bound on waiting, so admitting early is always allowed;
* an idle group (nothing in flight) flushes when either bound trips:
  ``max_batch`` *distinct* queries pending (immediately), or the
  group's current hold elapsed since its oldest pending query — a
  lone query on a quiet service never waits on traffic that may not
  come.

Without the per-group serialization the system has a degenerate
equilibrium under saturation: ticks execute for much longer than the
hold, completions arrive staggered, and each completion's resubmission
burst gets timer-flushed alone — tick sizes decay geometrically to ~1
and throughput collapses to per-query serial.  Flush-on-completion is
what removes that equilibrium; the load generator's tick-size
histogram is the regression witness.

**Intra-tick frontier dedup.**  Queries are frozen dataclasses keyed
by their exact float coordinates (plus ``k``/``radius``), so equal
queries are *identical* work: the oracle is a deterministic function
of the query value.  The batcher therefore canonicalizes a group's
backlog as an ordered map ``query -> [futures]``; a tick executes each
distinct query **once** — one leaf-frontier row, one set of evaluated
(point, leaf) pairs — and the single result object is fanned out to
every requester's future.  The
fan-out is bit-identical by construction (every caller receives the
same demuxed value, not a recomputation), and under a hot-set skew it
removes the duplicated majority of each tick's frontier work.  The
``max_batch`` cap applies to *distinct* queries: that is what bounds
execution cost, so a hot tick now admits far more users per run.

**Adaptive hold.**  The static ``max_hold_s`` knob survives only as a
*ceiling*.  Per group, the batcher tracks an EWMA of query
inter-arrival time and sets the idle-flush hold to
``hold_arrivals x ewma`` — long enough to accumulate a worthwhile
batch, never longer than the configured cap, never shorter than
:data:`MIN_HOLD_S`.  A hysteresis band (the hold only moves when the
target drifts more than :data:`HOLD_HYSTERESIS` away) keeps the
controller from chattering around the equilibrium; while a tick is in
flight the completion flush still dominates, so the self-tuned
full-tick steady state of the per-group serialization is untouched —
the controller only sharpens the *idle* latency bound when traffic is
dense and relaxes it back toward the ceiling when traffic is sparse.
``adaptive_hold=False`` restores the fixed-knob behavior exactly.

A flush hands the chunk to ``run_batch`` (the service's
``execute_batch``) on an executor thread, then demuxes the returned
per-query results back onto the callers' futures.  NumPy holds the
interpreter only briefly inside the kernels, so the event loop keeps
admitting while a tick executes; different kinds still execute
concurrently.

The policy is deliberately the paper's Section 2 interchange worn as
an admission discipline: the "outer recursion" over user queries is
*materialized* per tick (one block of query points swept against the
resident reference tree) instead of executed one query at a time,
which is exactly the interchange the benchmarks apply to nested
traversals — see PAPER_MAP.md.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Callable, Optional, Sequence

from repro.errors import SpecError
from repro.serve.protocol import Query, Result, group_key

#: Adaptive-hold floor, seconds.  Below ~0.1 ms the event loop's own
#: timer granularity dominates and a shorter hold buys nothing.
MIN_HOLD_S = 1e-4

#: Arrivals the adaptive controller aims to accumulate per idle tick.
DEFAULT_HOLD_ARRIVALS = 8.0

#: EWMA smoothing factor for the inter-arrival estimate.
ARRIVAL_EWMA_ALPHA = 0.2

#: Relative dead band: the applied hold only moves when the target
#: drifts more than this fraction away from it (hysteresis).
HOLD_HYSTERESIS = 0.25


class _PendingGroup:
    """One compatible kind: its deduplicated backlog and in-flight state."""

    __slots__ = (
        "entries",
        "timer",
        "running",
        "last_arrival",
        "ewma_dt",
        "hold_s",
        "serial",
    )

    def __init__(self, hold_s: float) -> None:
        #: entry key -> (query, futures of every caller riding it).
        #: With dedup the key is the (hashable, frozen) query itself;
        #: without it each submission gets a unique integer key.
        self.entries: "OrderedDict[object, tuple[Query, list[asyncio.Future]]]" = (
            OrderedDict()
        )
        self.timer: Optional[asyncio.TimerHandle] = None
        self.running = 0
        #: adaptive-hold controller state
        self.last_arrival: Optional[float] = None
        self.ewma_dt: Optional[float] = None
        self.hold_s = hold_s
        #: unique-key counter for dedup-disabled admission
        self.serial = 0

    def pending_queries(self) -> int:
        """Admitted user queries waiting (duplicates included)."""
        return sum(len(futures) for _, futures in self.entries.values())


class AdmissionBatcher:
    """Group concurrent queries into deduplicated service ticks.

    ``run_batch`` is a synchronous callable (queries -> results, in
    order); it runs on ``executor`` (``None`` = the loop's default
    thread pool) and only ever sees each tick's *distinct* queries.
    Create the batcher *inside* the event loop that will use it.
    """

    def __init__(
        self,
        run_batch: Callable[[Sequence[Query]], list[Result]],
        max_batch: int = 256,
        max_hold_s: float = 0.002,
        executor=None,
        dedup: bool = True,
        adaptive_hold: bool = True,
        hold_arrivals: float = DEFAULT_HOLD_ARRIVALS,
    ) -> None:
        if max_batch < 1:
            raise SpecError(f"max_batch must be >= 1, got {max_batch}")
        if max_hold_s < 0:
            raise SpecError(f"max_hold_s must be >= 0, got {max_hold_s}")
        if hold_arrivals <= 0:
            raise SpecError(
                f"hold_arrivals must be > 0, got {hold_arrivals}"
            )
        self.run_batch = run_batch
        self.max_batch = max_batch
        self.max_hold_s = max_hold_s
        self.executor = executor
        self.dedup = dedup
        self.adaptive_hold = adaptive_hold
        self.hold_arrivals = hold_arrivals
        self._pending: dict[tuple, _PendingGroup] = {}
        self._inflight: set[asyncio.Task] = set()
        #: flush-size history counters
        self.ticks = 0
        self.queries = 0
        self.executed = 0
        self.dedup_folded = 0
        self.full_flushes = 0
        self.timer_flushes = 0
        self.completion_flushes = 0
        self.max_tick_size = 0
        self.max_distinct_tick = 0

    async def submit(self, query: Query) -> Result:
        """Admit one query; resolves with its demuxed result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        key = group_key(query)
        group = self._pending.get(key)
        if group is None:
            group = _PendingGroup(self.max_hold_s)
            self._pending[key] = group
        self._observe_arrival(group)
        if self.dedup:
            entry = group.entries.get(query)
            if entry is not None:
                # Intra-tick frontier sharing: an exact-coordinate
                # duplicate rides the already-admitted entry — zero
                # extra tree rows, zero extra kernel work, one more
                # future in the fan-out.
                self.dedup_folded += 1
                entry[1].append(future)
                return await future
            group.entries[query] = (query, [future])
        else:
            group.serial += 1
            group.entries[group.serial] = (query, [future])
        if group.running == 0 and len(group.entries) >= self.max_batch:
            self.full_flushes += 1
            self._flush(key)
        elif group.timer is None:
            # Armed even while a tick is in flight: if the tick
            # outlives the hold, completion admits the backlog anyway
            # (earlier than the timer would); if the caller configured
            # a hold *longer* than the execution, the timer still
            # bounds the wait of a backlog the completion left behind.
            group.timer = loop.call_later(
                group.hold_s, self._timer_flush, key
            )
        return await future

    def _observe_arrival(self, group: _PendingGroup) -> None:
        """Feed the adaptive-hold controller one arrival timestamp."""
        if not self.adaptive_hold:
            return
        now = time.monotonic()
        last = group.last_arrival
        group.last_arrival = now
        if last is None:
            return
        dt = max(0.0, now - last)
        if group.ewma_dt is None:
            group.ewma_dt = dt
        else:
            group.ewma_dt += ARRIVAL_EWMA_ALPHA * (dt - group.ewma_dt)
        target = min(
            self.max_hold_s,
            max(MIN_HOLD_S, self.hold_arrivals * group.ewma_dt),
        )
        # Hysteresis: only re-tune when the target escapes the dead
        # band, so equilibrium noise does not chatter the knob.
        current = group.hold_s
        if abs(target - current) > HOLD_HYSTERESIS * current:
            group.hold_s = target

    def _timer_flush(self, key: tuple) -> None:
        group = self._pending.get(key)
        if group is None:
            return
        group.timer = None
        if not group.entries or group.running > 0:
            # Busy backend: the hold deadline defers to the completion
            # flush, which cannot be further away than one tick.
            return
        self.timer_flushes += 1
        self._flush(key)

    def _flush(self, key: tuple) -> None:
        """Launch one ``max_batch``-capped chunk of the group's backlog.

        The cap counts *distinct* queries — the unit of execution cost;
        each distinct entry carries every duplicate caller's future.
        """
        group = self._pending.get(key)
        if group is None or not group.entries:
            return
        chunk_queries: list[Query] = []
        chunk_futures: list[list[asyncio.Future]] = []
        while group.entries and len(chunk_queries) < self.max_batch:
            _, (query, futures) = group.entries.popitem(last=False)
            chunk_queries.append(query)
            chunk_futures.append(futures)
        if group.timer is not None and not group.entries:
            group.timer.cancel()
            group.timer = None
        admitted = sum(len(futures) for futures in chunk_futures)
        self.ticks += 1
        self.queries += admitted
        self.executed += len(chunk_queries)
        self.max_tick_size = max(self.max_tick_size, admitted)
        self.max_distinct_tick = max(
            self.max_distinct_tick, len(chunk_queries)
        )
        group.running += 1
        task = asyncio.get_running_loop().create_task(
            self._execute(key, chunk_queries, chunk_futures)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _execute(
        self,
        key: tuple,
        queries: list[Query],
        futures: list[list[asyncio.Future]],
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            try:
                results = await loop.run_in_executor(
                    self.executor, self.run_batch, queries
                )
                if len(results) != len(queries):
                    raise SpecError(
                        f"run_batch returned {len(results)} results for "
                        f"{len(queries)} queries"
                    )
            except BaseException as exc:
                for waiters in futures:
                    for future in waiters:
                        if not future.done():
                            future.set_exception(exc)
                return
            for waiters, result in zip(futures, results):
                # Bit-identical fan-out: every duplicate caller gets the
                # same result object the distinct query produced.
                for future in waiters:
                    if not future.done():
                        future.set_result(result)
        finally:
            self._on_complete(key)

    def _on_complete(self, key: tuple) -> None:
        group = self._pending.get(key)
        if group is None:
            return
        group.running -= 1
        if group.running == 0 and group.entries:
            # The backlog accumulated for the whole tick; admit it now
            # (the hold is a maximum, not a minimum).
            self.completion_flushes += 1
            self._flush(key)

    async def drain(self) -> None:
        """Flush everything pending and wait for in-flight ticks."""
        while True:
            for key in list(self._pending):
                group = self._pending[key]
                if group.running == 0 and group.entries:
                    self._flush(key)
            if not self._inflight:
                if any(g.entries for g in self._pending.values()):
                    continue
                return
            await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )

    def _hold_key(self, key: tuple) -> str:
        """A JSON-friendly label for one admission group."""
        return ":".join(str(part) for part in key)

    def batcher_stats(self) -> dict:
        """Admission counters (ticks, sizes, flush causes, dedup, hold)."""
        mean = self.queries / self.ticks if self.ticks else 0.0
        mean_distinct = self.executed / self.ticks if self.ticks else 0.0
        dedup_rate = (
            self.dedup_folded / self.queries if self.queries else 0.0
        )
        return {
            "ticks": self.ticks,
            "queries": self.queries,
            "executed": self.executed,
            "dedup_folded": self.dedup_folded,
            "dedup_hit_rate": round(dedup_rate, 4),
            "mean_tick_size": round(mean, 2),
            "mean_distinct_tick": round(mean_distinct, 2),
            "max_tick_size": self.max_tick_size,
            "max_distinct_tick": self.max_distinct_tick,
            "full_flushes": self.full_flushes,
            "timer_flushes": self.timer_flushes,
            "completion_flushes": self.completion_flushes,
            "adaptive_hold": {
                self._hold_key(key): {
                    "hold_ms": round(group.hold_s * 1000.0, 4),
                    "ewma_interarrival_ms": (
                        None
                        if group.ewma_dt is None
                        else round(group.ewma_dt * 1000.0, 4)
                    ),
                }
                for key, group in sorted(self._pending.items())
            },
            "dedup": self.dedup,
            "adaptive": self.adaptive_hold,
        }
