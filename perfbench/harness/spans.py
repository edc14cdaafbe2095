"""In-memory spans around the program's entry points, installed from outside.

The traced run wraps named functions of the ``repro`` package with
:class:`SpanRecorder` wrappers: each call records ``(id, name, start,
end, parent, trace id, value)``.  ``parent`` is the enclosing wrapped
call on the same thread (0 for a root) and the trace id is the root of
that chain, so every span of one serve tick shares the tick's id.
``value`` is an optional per-call measurement (bytes published,
distances computed, the queries of a tick).

Spans stay in memory and are written once, when the run ends
(:meth:`SpanRecorder.dump`).  A process forked from a traced one (the
``parallel`` backend's workers) starts an empty recorder of its own and
writes it to ``spans-<pid>.json`` beside the parent's file when the
worker exits, so worker-side work is traced too.

:func:`install` replaces a function everywhere the ``repro`` modules
hold it: the defining module or class, every module global bound to
the same object (``from x import f``), and dataclass fields of module
globals (the schedule registry stores its runners there).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
import weakref
from typing import Any, Callable, Optional

#: Span tuple layout.
ID, NAME, START, END, PARENT, TRACE, VALUE = range(7)


class SpanRecorder:
    """Collects spans and counter events of one process in memory."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self.events: list[tuple[str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        if os.getpid() != self._pid:
            self._adopt_fork()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt_fork(self) -> None:
        """Start clean in a forked worker and write its spans at exit."""
        from multiprocessing import util

        self._pid = os.getpid()
        self.spans = []
        self.events = []
        self._local = threading.local()
        if self.out_dir is not None:
            path = os.path.join(self.out_dir, f"spans-{self._pid}.json")
            util.Finalize(None, self.dump, args=(path,), exitpriority=10)

    def count(self, name: str, amount: float = 1) -> None:
        """Record a counter event (thread-safe: one list append)."""
        if os.getpid() != self._pid:
            self._adopt_fork()
        self.events.append((name, amount))

    def wrap(
        self,
        name: str,
        fn: Callable,
        measure: Optional[Callable[[tuple, dict, Any], Any]] = None,
    ) -> Callable:
        """A synchronous span wrapper around ``fn``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            if stack:
                parent, trace = stack[-1][0], stack[0][0]
            else:
                parent, trace = 0, span_id
            stack.append((span_id, trace))
            value = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, name, start, end, parent, trace, value)
                )

        wrapper.__perfbench_original__ = fn
        return wrapper

    def wrap_async(
        self,
        name: str,
        fn: Callable,
        measure: Optional[Callable[[tuple, dict, Any], Any]] = None,
    ) -> Callable:
        """A span wrapper around a coroutine function.

        Coroutines interleave on one thread, so these spans never join
        the thread's parent stack: each is a root with its own id.
        """
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = next(recorder._ids)
            value = measure(args, kwargs, None) if measure is not None else None
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.spans.append(
                    (span_id, name, start, time.perf_counter(), 0, span_id, value)
                )

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- output -----------------------------------------------------------

    def to_json(self) -> dict:
        """A JSON-able dump: span rows plus summed counter events.

        Span values JSON cannot hold as a scalar (a tick's query list)
        are written as null.
        """
        counters: dict[str, float] = {}
        for name, amount in self.events:
            counters[name] = counters.get(name, 0) + amount
        return {
            "pid": self._pid,
            "spans": [
                [s[ID], s[NAME], s[START], s[END], s[PARENT], s[TRACE], _scalar(s[VALUE])]
                for s in self.spans
            ],
            "counters": counters,
        }

    def dump(self, path: str) -> None:
        """Write every recorded span to ``path`` (JSON)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle)


def _scalar(value: Any) -> Any:
    return value if isinstance(value, (int, float, str)) else None


def load_span_files(paths: list[str]) -> tuple[list[dict], dict[str, float]]:
    """Read span dumps; span ids are made unique across processes."""
    spans: list[dict] = []
    counters: dict[str, float] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        pid = payload["pid"]
        for row in payload["spans"]:
            span_id, name, start, end, parent, trace, value = row
            spans.append(
                {
                    "id": (pid, span_id),
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": (pid, parent) if parent else 0,
                    "trace": (pid, trace),
                    "value": value,
                    "pid": pid,
                }
            )
        for name, amount in payload["counters"].items():
            counters[name] = counters.get(name, 0) + amount
    return spans, counters


# ---------------------------------------------------------------------------
# Installation


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (owner, attribute name, current value)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _rebind_everywhere(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module global (and dataclass field) at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
            elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                for field in dataclasses.fields(value):
                    if getattr(value, field.name, None) is original:
                        object.__setattr__(value, field.name, replacement)


def install(
    recorder: SpanRecorder,
    targets: list[tuple[str, str, Optional[Callable]]],
) -> list[str]:
    """Wrap every ``(target, span name, measure)``; return the targets missing.

    A target the program no longer has is skipped and reported, so a
    renamed function shows up as a missing layer, not as a crash.
    """
    missing = []
    for target, name, measure in targets:
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        if hasattr(original, "__perfbench_original__"):
            continue
        make = recorder.wrap_async if inspect.iscoroutinefunction(original) else recorder.wrap
        replacement = make(name, original, measure)
        setattr(owner, attr, replacement)
        _rebind_everywhere(original, replacement)
    return missing


def install_first_call(
    recorder: SpanRecorder, cls: type, method: str, name: str
) -> None:
    """Span only the first call of ``cls.method`` per instance.

    Used on ``ProcessPoolExecutor.submit``: with the fork start method
    the first submit of an executor launches all of its workers, so
    that call is the pool start.
    """
    original = getattr(cls, method)
    if hasattr(original, "__perfbench_original__"):
        return
    seen: "weakref.WeakSet[Any]" = weakref.WeakSet()
    timed = recorder.wrap(name, original)

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        if self in seen:
            return original(self, *args, **kwargs)
        seen.add(self)
        return timed(self, *args, **kwargs)

    wrapper.__perfbench_original__ = original
    setattr(cls, method, wrapper)


def install_counter(
    recorder: SpanRecorder,
    target: str,
    name: str,
    amount: Callable[[tuple, dict], float],
) -> bool:
    """Count events at ``target`` without a span (for hot methods).

    ``amount`` sees the call's arguments *before* the call runs.
    """
    try:
        owner, attr, original = _resolve(target)
    except (ImportError, AttributeError):
        return False
    if hasattr(original, "__perfbench_original__"):
        return True

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        n = amount(args, kwargs)
        if n:
            recorder.count(name, n)
        return original(*args, **kwargs)

    wrapper.__perfbench_original__ = original
    setattr(owner, attr, wrapper)
    _rebind_everywhere(original, wrapper)
    return True
