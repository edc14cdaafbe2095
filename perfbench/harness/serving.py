"""The ``serve-hot`` and ``serve-unique`` workloads.

A ``python -m repro.serve`` subprocess (default config) serves the
benchmark's own reference set over TCP; this process is the whole load
generator: one asyncio thread, one connection.

* Phase A is open loop: Poisson arrivals at a fixed rate, each request
  timed from its *scheduled* send time, so a stall also delays the
  requests queued behind it.  A request that fails or never returns is
  an infinite latency.
* Phase B is closed loop: a fixed window of requests in flight, held
  in the kind mix, each answer immediately replaced by a new request of
  the same kind; its completion rate is ``sat_qps``.

Every answer is checked against the brute-force oracle after the
server has exited.  A run whose generator fell behind (late sends,
an unheld window, a lagging client loop) or whose phase-A backlog grew
is invalid, not slow: it raises :class:`BenchError`.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from harness import wire
from harness.hostinfo import peak_rss_mb
from harness.inputs import (
    KINDS,
    MIX,
    TINY_SERVE,
    Query,
    QueryStream,
    ServeSizes,
    poisson_offsets,
    serve_references,
)
from harness.oracle import check_answers
from harness.procs import BenchError, Context
from harness.stats import gmean, latency_summary, percentile

#: Fresh servers whose spawn-to-first-ping time is sampled (main included).
SETUP_SAMPLES = 3
#: Share of phase B discarded while the window fills.
CLOSED_WARMUP_SHARE = 0.25
#: Seconds an answer may take after the last request of a phase.
DRAIN_TIMEOUT_S = 20.0
#: Client event-loop probe period.
PROBE_PERIOD_S = 0.005
#: Phase-B metrics are medians over windows of about this many seconds.
WINDOW_S = 3.0

#: Generator health limits; past any of them the run is invalid.
MIN_RATE_RATIO = 0.95  # achieved / offered arrival rate in phase A
MAX_SEND_LAG_P99_MS = 100.0  # late sends in phase A
MAX_OPEN_BACKLOG_S = 1.0  # phase-A requests outstanding, in seconds of arrivals
MIN_WINDOW_HELD = 0.9  # time-weighted in-flight / window in phase B
MAX_CLIENT_LAG_P99_MS = 100.0  # client loop lag in phase B

_ADDRESS = re.compile(r"on \('([^']+)', (\d+)\)")


@dataclass
class Request:
    query: Query
    phase: str
    due: float
    sent: float
    received: Optional[float] = None
    ok: bool = False
    payload: object = None


@dataclass
class Session:
    """What one server lifetime measured."""

    setup_s: float
    requests: dict = field(default_factory=dict)
    open_health: dict = field(default_factory=dict)
    closed_health: dict = field(default_factory=dict)
    closed_window: tuple = (0.0, 0.0)
    stats: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0


class Connection:
    """One client connection: writes requests, a task reads answers."""

    def __init__(self, reader, writer, stream: QueryStream) -> None:
        self.reader = reader
        self.writer = writer
        self.stream = stream
        self.binary = False
        self.requests: dict[int, Request] = {}
        self.outstanding = 0
        self._next_id = 1
        self._control: dict[int, asyncio.Future] = {}
        self._next_control = 1 << 31
        self._idle = asyncio.Event()
        self._idle.set()
        self._refill_until: Optional[float] = None
        self._area_window = (0.0, 0.0)
        self._area = 0.0
        self._area_last = 0.0
        self._reader_task = asyncio.ensure_future(self._read_loop())

    # -- requests ---------------------------------------------------------

    def send(self, phase: str, due: float, query: Optional[Query] = None) -> None:
        """Send ``query`` (default: the stream's next) now, scheduled for ``due``."""
        if query is None:
            query = self.stream.next()
        request_id = self._next_id
        self._next_id += 1
        now = time.perf_counter()
        self._account(now)
        self.requests[request_id] = Request(query, phase, due, now)
        self.outstanding += 1
        self._idle.clear()
        encode = wire.binary_query if self.binary else wire.json_query
        self.writer.write(encode(request_id, query))

    def _answered(self, request_id: int, now: float, ok: bool, payload) -> None:
        request = self.requests.get(request_id)
        if request is None or request.received is not None:
            return
        self._account(now)
        request.received, request.ok, request.payload = now, ok, payload
        self.outstanding -= 1
        if self._refill_until is not None and now < self._refill_until:
            # Same kind in, same kind out: the window keeps the mix, where
            # a replacement drawn by the mix would let the slowest kind
            # slowly fill the window and the rate drift all phase long.
            self.send("B", time.perf_counter(), self.stream.next_of(request.query.kind))
        elif self.outstanding == 0:
            self._idle.set()

    def _account(self, now: float) -> None:
        """Integrate requests in flight over the phase-B measurement window."""
        lo, hi = self._area_window
        a, b = max(lo, self._area_last), min(hi, now)
        if b > a:
            self._area += self.outstanding * (b - a)
        self._area_last = now

    async def drain(self, timeout: float) -> None:
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    # -- control ops ------------------------------------------------------

    async def control(self, op: str, **fields):
        request_id = self._next_control
        self._next_control += 1
        future = asyncio.get_running_loop().create_future()
        self._control[request_id] = future
        if self.binary:
            frame_type = {"ping": wire.T_PING, "stats": wire.T_STATS, "shutdown": wire.T_SHUTDOWN}[op]
            self.writer.write(wire.frame(frame_type, request_id))
        else:
            self.writer.write(wire.json_op(request_id, op, **fields))
        await self.writer.drain()
        return await asyncio.wait_for(future, 30.0)

    async def stats(self) -> dict:
        reply = await self.control("stats")
        if self.binary:
            return json.loads(reply[1].decode())
        return reply["stats"]

    async def hello_binary(self) -> None:
        reply = await self.control("hello", framing="binary")
        if not reply.get("ok") or not self.binary:
            raise BenchError(f"binary framing refused: {reply}")

    # -- reading ----------------------------------------------------------

    async def _read_loop(self) -> None:
        reader = self.reader
        try:
            while True:
                if self.binary:
                    word = await reader.readexactly(wire.LENGTH.size)
                    payload = await reader.readexactly(wire.LENGTH.unpack(word)[0])
                    now = time.perf_counter()
                    frame_type, request_id = wire.HEADER.unpack_from(payload)
                    body = payload[wire.HEADER.size :]
                    future = self._control.pop(request_id, None)
                    if future is not None:
                        if not future.done():
                            future.set_result((frame_type, body))
                    elif frame_type == wire.T_RESULT:
                        self._answered(request_id, now, True, body)
                    else:
                        self._answered(request_id, now, False, body.decode(errors="replace"))
                    continue
                line = await reader.readline()
                if not line:
                    break
                now = time.perf_counter()
                message = json.loads(line)
                request_id = message.get("id")
                future = self._control.pop(request_id, None)
                if future is not None:
                    if message.get("framing") == "binary" and message.get("ok"):
                        # Every later byte is a frame; switch before reading on.
                        self.binary = True
                    if not future.done():
                        future.set_result(message)
                elif message.get("ok"):
                    self._answered(request_id, now, True, message.get("result"))
                else:
                    self._answered(request_id, now, False, message.get("error"))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            for future in self._control.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass

    # -- phases -----------------------------------------------------------

    async def open_loop(self, offsets: np.ndarray, rate: float, phase: str = "A") -> dict:
        """Open loop: send at ``start + offsets``, whatever the answers do."""
        queries = [self.stream.next() for _ in offsets]
        start = time.perf_counter() + 0.05
        lags = []
        backlog = 0
        for offset, query in zip(offsets, queries):
            due = start + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            self.send(phase, due, query)
            backlog = max(backlog, self.outstanding)
        last_sent = time.perf_counter()
        outstanding_at_end = self.outstanding
        await self.writer.drain()
        await self.drain(DRAIN_TIMEOUT_S)
        offered = len(offsets) / float(offsets[-1])
        achieved = len(offsets) / (last_sent - start)
        return {
            "requests": len(offsets),
            "offered_qps": offered,
            "achieved_qps": achieved,
            "rate_ratio": achieved / offered,
            "send_lag_p50_ms": 1e3 * statistics.median(lags),
            "send_lag_p99_ms": 1e3 * percentile(lags, 99.0),
            "max_outstanding": backlog,
            "outstanding_at_last_send": outstanding_at_end,
            "backlog_limit": max(1, math.ceil(MAX_OPEN_BACKLOG_S * rate)),
        }

    async def closed_loop(self, seconds: float, window: int) -> tuple[dict, tuple]:
        """Phase B: keep ``window`` requests in flight for ``seconds``."""
        lags: list[float] = []
        probing = True

        async def probe() -> None:
            while probing:
                before = time.perf_counter()
                await asyncio.sleep(PROBE_PERIOD_S)
                lags.append(time.perf_counter() - before - PROBE_PERIOD_S)

        start = time.perf_counter()
        end = start + seconds
        measured_from = start + CLOSED_WARMUP_SHARE * seconds
        self._area_window = (measured_from, end)
        self._area, self._area_last = 0.0, start
        self._refill_until = end
        probe_task = asyncio.ensure_future(probe())
        shares = [round(share * window) for share in MIX[:-1]]
        shares.append(window - sum(shares))
        for kind, share in zip(KINDS, shares):
            for _ in range(share):
                self.send("B", start, self.stream.next_of(kind))
        await self.writer.drain()
        while time.perf_counter() < end:
            await asyncio.sleep(min(0.05, max(0.0, end - time.perf_counter())))
            await self.writer.drain()
        self._refill_until = None
        self._account(end)
        probing = False
        await probe_task
        if self.outstanding == 0:
            self._idle.set()
        await self.drain(DRAIN_TIMEOUT_S)
        held = self._area / ((end - measured_from) * window)
        health = {
            "window": window,
            "window_held": held,
            "client_lag_p99_ms": 1e3 * percentile(lags, 99.0) if lags else 0.0,
        }
        return health, (measured_from, end)


def _address(line: str) -> tuple[str, int]:
    match = _ADDRESS.search(line)
    if match is None:
        raise BenchError(f"no server address in {line!r}")
    return match.group(1), int(match.group(2))


@dataclass
class Plan:
    """What one measured session sends."""

    seed: int
    sizes: ServeSizes
    hot: bool
    binary: bool
    offsets: np.ndarray
    warmup_offsets: np.ndarray
    closed_s: float


def _server_args(ctx: Context, references: str, spans_dir: Optional[str]) -> list[str]:
    serve = ["--host", "127.0.0.1", "--port", "0", "--references-file", references]
    if spans_dir is None:
        return ["-m", "repro.serve", *serve]
    return ["-m", "harness.launcher", "--spans-dir", spans_dir, "--", *serve]


def _session(
    ctx: Context, references: str, plan: Optional[Plan], spans_dir: Optional[str] = None
) -> Session:
    """Spawn a server, time it to its first ping, optionally load it, stop it."""
    start = time.perf_counter()
    child = ctx.spawn(_server_args(ctx, references, spans_dir), "server.log")
    host, port = _address(child.readline(min(120.0, ctx.remaining())))

    async def client() -> Session:
        reader, writer = await asyncio.open_connection(host, port)
        stream = QueryStream(plan.seed, plan.sizes, plan.hot) if plan else None
        conn = Connection(reader, writer, stream)
        try:
            await conn.control("ping")
            session = Session(setup_s=time.perf_counter() - start)
            if plan is not None:
                if plan.binary:
                    await conn.hello_binary()
                # Untimed warm-up at the phase-A rate: the first tick of
                # each kind builds lazy state no later request pays for.
                await conn.open_loop(plan.warmup_offsets, plan.sizes.rate_qps, "W")
                session.open_health = await conn.open_loop(plan.offsets, plan.sizes.rate_qps)
                session.closed_health, session.closed_window = await conn.closed_loop(
                    plan.closed_s, plan.sizes.window
                )
                session.stats = await conn.stats()
                session.peak_rss_mb = peak_rss_mb(child.proc.pid)
                session.requests = conn.requests
            await conn.control("shutdown")
            return session
        finally:
            await conn.close()

    try:
        session = asyncio.run(asyncio.wait_for(client(), ctx.remaining()))
    except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
        raise BenchError(f"serve session failed: {exc!r}; server log: {child.tail()}") from exc
    if child.wait(min(60.0, ctx.remaining())) != 0:
        raise BenchError(f"server exited with an error: {child.tail()}")
    return session


def _health_problems(session: Session) -> list[str]:
    a, b = session.open_health, session.closed_health
    problems = []
    if a["rate_ratio"] < MIN_RATE_RATIO:
        problems.append(f"phase A sent at {a['rate_ratio']:.3f} of the offered rate")
    if a["send_lag_p99_ms"] > MAX_SEND_LAG_P99_MS:
        problems.append(f"phase A send lag p99 {a['send_lag_p99_ms']:.1f} ms")
    if a["outstanding_at_last_send"] > a["backlog_limit"]:
        problems.append(f"phase A backlog grew to {a['outstanding_at_last_send']}")
    if b["window_held"] < MIN_WINDOW_HELD:
        problems.append(f"phase B held {b['window_held']:.3f} of the window")
    if b["client_lag_p99_ms"] > MAX_CLIENT_LAG_P99_MS:
        problems.append(f"phase B client loop lag p99 {b['client_lag_p99_ms']:.1f} ms")
    return problems


def _answer(request: Request, binary: bool):
    """The answer in oracle form; an undecodable one is returned as-is (wrong)."""
    try:
        if binary:
            return wire.answer_from_binary(request.payload)
        return wire.answer_from_json(request.payload)
    except (KeyError, TypeError, ValueError, IndexError, struct.error):
        return ("undecodable", repr(request.payload)[:200])


def check_session(references: np.ndarray, session: Session, binary: bool) -> dict:
    """Failed and wrong requests of one session, against the oracle."""
    answered = [r for r in session.requests.values() if r.received is not None and r.ok]
    pairs = [(r.query, _answer(r, binary)) for r in answered]
    wrong = check_answers(references, pairs)
    failed = len(session.requests) - len(answered)
    wrong_ids = {id(answered[i]) for i in wrong}
    return {
        "attempted": len(session.requests),
        "failed": failed,
        "wrong": len(wrong),
        "wrong_examples": [
            {"query": [pairs[i][0].kind, *pairs[i][0].point], "answer": repr(pairs[i][1])}
            for i in wrong[:5]
        ],
        "bad_requests": wrong_ids,
    }


def e2e_metrics(session: Session, setup_samples: list[float], bad: set) -> dict[str, float]:
    """The end-to-end metrics of one measured session (phase B).

    ``solve_*`` is the serve counterpart of a batch job's solve time: the
    mean time each kind's answers took at saturation.  Phase B's measured
    span is cut into windows of about :data:`WINDOW_S` and each metric is
    the median over the windows, so a stretch of a few seconds in which
    the VM ran slow or fast moves one window, not the result.
    """
    lo, hi = session.closed_window
    closed = [
        r
        for r in session.requests.values()
        if r.phase == "B" and r.ok and r.received is not None
        and lo <= r.received <= hi and id(r) not in bad
    ]
    count = max(1, int((hi - lo) // WINDOW_S))
    width = (hi - lo) / count
    windows: list[list[Request]] = [[] for _ in range(count)]
    for r in closed:
        windows[min(count - 1, int((r.received - lo) // width))].append(r)
    # Means within a window, not medians: a kind's answers come a tick
    # (up to 256) at a time, and a median lands on whichever tick holds
    # the middle answer.
    per_kind = [
        statistics.median(
            statistics.fmean(r.received - r.sent for r in window if r.query.kind == kind)
            for window in windows
        )
        for kind in KINDS
    ]
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": session.peak_rss_mb,
        "solve_gmean_s": gmean(per_kind),
        "solve_total_s": sum(per_kind),
        "sat_qps": statistics.median(
            completion_rate([r.received for r in window]) for window in windows
        ),
    }


def completion_rate(times: list[float]) -> float:
    """Completions per second: the least-squares slope of the cumulative count.

    A tick answers its whole batch (up to 256 queries of one kind) at
    once, so completions arrive as a staircase.  Counting the answers in
    a fixed window moves by a whole step wherever the window edges cut
    it; the slope through every step does not.
    """
    times = sorted(times)
    n = len(times)
    if n < 2:
        raise BenchError("phase B completed fewer than two requests")
    t_mean = sum(times) / n
    y_mean = (n - 1) / 2.0
    covariance = sum((t - t_mean) * (i - y_mean) for i, t in enumerate(times))
    variance = sum((t - t_mean) ** 2 for t in times)
    return covariance / variance


def _window_count(session: Session) -> int:
    lo, hi = session.closed_window
    return sum(
        1 for r in session.requests.values()
        if r.phase == "B" and r.ok and r.received is not None and lo <= r.received <= hi
    )


def open_loop_latency(session: Session, bad: set) -> dict:
    """Phase-A latency: median and p99 (with its sample count), overall and per kind.

    A request that failed, never returned or was wrong is an infinite
    latency.  Full-size runs have the 1000 samples p99 needs; tiny smoke
    runs report their highest qualified percentile as ``tail``.
    """
    opened = [r for r in session.requests.values() if r.phase == "A"]
    good = [r for r in opened if r.received is not None and r.ok and id(r) not in bad]
    summary = latency_summary(
        [1e3 * (r.received - r.due) for r in good], failures=len(opened) - len(good)
    )
    per_kind = {}
    for kind in KINDS:
        mine = [r for r in opened if r.query.kind == kind]
        ok = [1e3 * (r.received - r.due) for r in good if r.query.kind == kind]
        per_kind[kind] = latency_summary(ok, failures=len(mine) - len(ok))["p50"]
    return {
        "lat_p50_ms": summary["p50"],
        "lat_p99_ms": summary["p99"],
        "samples": summary["samples"],
        "failures": summary["failures"],
        "tail_q": summary["tail_q"],
        "tail_ms": summary["tail"],
        "per_kind_p50_ms": per_kind,
    }


def _server_counters(stats: dict) -> dict:
    batcher = stats.get("batcher", {})
    cache = stats.get("verdict_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "serve.batcher.ticks": float(batcher.get("ticks", 0)),
        "serve.batcher.mean_tick": float(batcher.get("mean_tick_size", 0.0)),
        "serve.batcher.mean_distinct_tick": float(batcher.get("mean_distinct_tick", 0.0)),
        "serve.batcher.dedup_hit_ratio": float(batcher.get("dedup_hit_rate", 0.0)),
        "serve.rules.verdict_cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
    }


def run(ctx: Context, hot: bool, binary: bool) -> dict:
    """Run one serve workload; returns the outcome dict run.py reports."""
    sizes = TINY_SERVE if ctx.tiny else ServeSizes()
    references = serve_references(ctx.seed, sizes)
    reference_file = str(ctx.work / "references.npy")
    np.save(reference_file, references)
    # A traced run makes two passes in one run's time: each sends half
    # of phase A (its latency only feeds the overhead comparison).
    open_requests = sizes.open_requests // 2 if ctx.trace else sizes.open_requests
    open_s = open_requests / sizes.rate_qps
    plan = Plan(
        seed=ctx.seed,
        sizes=sizes,
        hot=hot,
        binary=binary,
        offsets=poisson_offsets(ctx.seed, sizes.rate_qps, open_requests),
        warmup_offsets=poisson_offsets(ctx.seed, sizes.rate_qps, sizes.warmup_requests, "serve.warmup"),
        closed_s=max(sizes.min_closed_s, ctx.pass_seconds - open_s),
    )
    if not ctx.trace:
        samples = [_session(ctx, reference_file, None).setup_s for _ in range(SETUP_SAMPLES - 1)]
        main = _session(ctx, reference_file, plan)
        samples.append(main.setup_s)
        sessions = [main]
    else:
        main = _session(ctx, reference_file, plan)
        samples = [main.setup_s]
        spans_dir = ctx.work / "spans"
        spans_dir.mkdir()
        traced = _session(ctx, reference_file, plan, str(spans_dir))
        sessions = [main, traced]

    problems = []
    for session in sessions:
        problems += _health_problems(session)
    checks = [check_session(references, s, binary) for s in sessions]
    metrics = e2e_metrics(main, samples, checks[0]["bad_requests"])
    latency = open_loop_latency(main, checks[0]["bad_requests"])
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] + c["wrong"] for c in checks)
    backends = main.stats.get("backends", {})
    detail = {
        "sizes": sizes.__dict__,
        "framing": "binary" if binary else "json",
        "hot_set": sizes.hot_set if hot else 0,
        "setup_samples_s": samples,
        "phase_a": {**main.open_health, **latency},
        "phase_b": {
            **main.closed_health,
            "seconds": plan.closed_s,
            "completions_in_window": _window_count(main),
        },
        "choices": {kind: f"{b['backend']}/{b['order']}" for kind, b in backends.items()},
        "server_counters": _server_counters(main.stats),
        "fail_frac": failed / attempted,
        "wrong_examples": [e for c in checks for e in c["wrong_examples"]],
        "generator_problems": problems,
        "not_measured": "multi-shard and pool-worker serving (needs more cores than the host leaves beside the generator)",
    }
    outcome = {
        "attempted": attempted,
        "failed": failed,
        "correct": all(c["wrong"] == 0 for c in checks),
        "e2e": metrics,
        "detail": detail,
        "invalid": problems,
    }
    if ctx.trace:
        outcome["traced_e2e"] = e2e_metrics(traced, [traced.setup_s], checks[1]["bad_requests"])
        detail["traced_phase_a"] = open_loop_latency(traced, checks[1]["bad_requests"])
        outcome["trace_dir"] = str(spans_dir)
        outcome["layer_extra"] = _server_counters(traced.stats)
        detail["traced_server_counters"] = outcome["layer_extra"]
    return outcome
