"""Child processes of one benchmark run: spawn, read events, always reap."""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


class BenchError(RuntimeError):
    """The run cannot produce a result (crash, timeout, invalid load)."""


@dataclass
class Context:
    """Where one run lives and what it has started."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    deadline: float
    work: Path = field(init=False)
    cache: Path = field(init=False)
    procs: list = field(default_factory=list)

    def __post_init__(self) -> None:
        base = self.root / ".perfbench"
        self.cache = base / "cache"
        self.work = base / f"run-{os.getpid()}"
        self.cache.mkdir(parents=True, exist_ok=True)
        self.work.mkdir(parents=True, exist_ok=True)

    @property
    def env(self) -> dict:
        """Child environment: the program from ``src``, the harness beside it."""
        env = dict(os.environ)
        paths = [str(self.root / "src"), str(Path(__file__).resolve().parents[1])]
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["PYTHONUNBUFFERED"] = "1"
        return env

    @property
    def pass_seconds(self) -> float:
        """Seconds each measured pass lasts: a traced run makes two passes
        (untraced, then traced) in the time an untraced run makes one."""
        return self.seconds / 2 if self.trace else self.seconds

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, args: list[str], log_name: str) -> "Child":
        """Start ``python args...`` with stdout piped, stderr to a log."""
        log = open(self.work / log_name, "ab")
        try:
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdout=subprocess.PIPE,
                stderr=log,
                cwd=self.root,
                env=self.env,
                # Its own process group, so stopping it also stops the
                # workers it forked (the parallel backend's pool).
                start_new_session=True,
            )
        finally:
            log.close()
        child = Child(proc, self.work / log_name)
        self.procs.append(child)
        return child

    def close(self) -> None:
        """Stop every child still running and remove the run directory."""
        for child in self.procs:
            child.stop()
        self.procs.clear()
        shutil.rmtree(self.work, ignore_errors=True)


class Child:
    """One child process and a line reader over its stdout."""

    def __init__(self, proc: subprocess.Popen, log: Path) -> None:
        self.proc = proc
        self.log = log
        self._buffer = b""

    def readline(self, timeout: float) -> str:
        """The next stdout line; raises on timeout or end of output."""
        end = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = end - time.monotonic()
            if left <= 0:
                raise BenchError(f"timed out waiting for {self.describe()}")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError(f"{self.describe()} exited: {self.tail()}")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def event(self, name: str, timeout: float) -> dict:
        """Wait for the JSON event ``name`` on stdout."""
        while True:
            line = self.readline(timeout)
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(payload, dict) and payload.get("event") == name:
                return payload

    def wait(self, timeout: float) -> int:
        try:
            code = self.proc.wait(timeout=max(0.1, timeout))
        except subprocess.TimeoutExpired as exc:
            self.stop()
            raise BenchError(f"{self.describe()} did not exit") from exc
        self._close_pipe()
        return code

    def stop(self) -> None:
        """Terminate, then kill, the child's process group; always wait."""
        if self.proc.poll() is None:
            self._signal_group(signal.SIGTERM)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._signal_group(signal.SIGKILL)
                self.proc.wait()
        self._signal_group(signal.SIGKILL)  # stray workers of an exited child
        self._close_pipe()

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.proc.pid, signum)
        except ProcessLookupError:
            pass

    def _close_pipe(self) -> None:
        if self.proc.stdout is not None and not self.proc.stdout.closed:
            self.proc.stdout.close()

    def describe(self) -> str:
        return " ".join(self.proc.args[1:4])

    def tail(self) -> str:
        try:
            return self.log.read_text(errors="replace")[-2000:]
        except OSError:
            return ""
