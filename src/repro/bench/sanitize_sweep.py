"""The ``python -m repro.bench sanitize`` CI gate.

Shadow-executes every built-in benchmark under every vectorized
backend and schedule via :func:`repro.core.sanitize.run_sanitized`,
demanding bit-identical instrumentation event streams and payloads
against the recursive reference.  This is the runtime half of the
conformance story: whatever the static analyzer
(:mod:`repro.transform.lint.backend`) marked ``needs-dynamic-check``
is discharged — or exposed — here.

Writes ``SANITIZE.json`` (uploaded as a CI artifact on divergence) and
exits nonzero when any run diverges.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.bench.workloads import wallclock_cases
from repro.core.backend_select import SINGLE_BACKENDS
from repro.core.sanitize import SanitizeDivergence, run_sanitized

#: Schedules swept by default: the untransformed baseline and the
#: paper's headline transformation.
DEFAULT_SCHEDULES = ("original", "twist")

#: Backends shadow-checked against ``recursive``: every other ungated
#: family, forced explicitly — at smoke scales ``auto`` would
#: legitimately pick ``recursive`` and the check would be vacuous.
DEFAULT_BACKENDS = tuple(b for b in SINGLE_BACKENDS if b != "recursive")

DEFAULT_JSON_PATH = "SANITIZE.json"


@dataclass
class SanitizeSweep:
    """Outcome of one full sanitize sweep."""

    scale: float
    #: successful-run reports, as JSON dicts
    runs: list = field(default_factory=list)
    #: divergences, as JSON dicts (empty = all proven equivalent)
    divergences: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_json(self) -> dict:
        """The ``SANITIZE.json`` payload."""
        return {
            "scale": self.scale,
            "ok": self.ok,
            "runs": list(self.runs),
            "divergences": list(self.divergences),
        }

    def render(self) -> str:
        """One line per run: ``ok`` or ``DIVERGED`` with the details."""
        lines = [
            f"sanitize sweep (scale {self.scale}): "
            f"{len(self.runs)} run(s) equivalent, "
            f"{len(self.divergences)} divergence(s)"
        ]
        for run in self.runs:
            lines.append(
                f"  ok  {run['spec']:4s} {run['schedule']:10s} "
                f"{run['backend']:8s} events={run['events']} "
                f"phases={','.join(run['phases'])}"
            )
        for divergence in self.divergences:
            lines.append(
                f"  DIVERGED  {divergence['spec']} "
                f"{divergence['schedule']} {divergence['backend']}: "
                f"{divergence['message']}"
            )
        return "\n".join(lines)


def run_sanitize_sweep(
    scale: float = 0.05,
    schedule_names: tuple = DEFAULT_SCHEDULES,
    backends: tuple = DEFAULT_BACKENDS,
    benchmarks: tuple = (),
) -> SanitizeSweep:
    """Shadow-execute every (case, schedule, backend) combination.

    Divergences are collected, not raised — the sweep always covers
    the full grid so one broken kernel cannot hide another.
    """
    sweep = SanitizeSweep(scale=scale)
    for case in wallclock_cases(scale):
        if benchmarks and case.name not in benchmarks:
            continue
        for schedule_name in schedule_names:
            for backend in backends:
                try:
                    report = run_sanitized(
                        case.make_spec,
                        schedule_name,
                        backend=backend,
                        probe=case.result,
                    )
                    sweep.runs.append(report.to_json())
                except SanitizeDivergence as divergence:
                    sweep.divergences.append(
                        {
                            "spec": divergence.spec_name,
                            "schedule": divergence.schedule,
                            "backend": divergence.backend,
                            "phase": divergence.phase,
                            "index": divergence.index,
                            "expected": repr(divergence.expected),
                            "actual": repr(divergence.actual),
                            "kernels": list(divergence.kernels),
                            "message": str(divergence),
                        }
                    )
    return sweep


def write_sanitize_json(
    sweep: SanitizeSweep, path: str = DEFAULT_JSON_PATH
) -> str:
    """Write the sweep's JSON payload; returns the absolute path."""
    with open(path, "w") as handle:
        json.dump(sweep.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return os.path.abspath(path)


def main(argv: list | None = None) -> int:
    """Entry point used by ``python -m repro.bench sanitize``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench sanitize",
        description="Shadow-execute vectorized backends against the "
        "recursive reference on every built-in benchmark.",
    )
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument(
        "--benchmark", action="append", metavar="NAME", default=None
    )
    parser.add_argument("--json", default=DEFAULT_JSON_PATH)
    args = parser.parse_args(argv)

    sweep = run_sanitize_sweep(
        scale=args.scale,
        benchmarks=tuple(name.upper() for name in args.benchmark or ()),
    )
    print(sweep.render())
    path = write_sanitize_json(sweep, args.json)
    print(f"JSON payload written to {path}")
    return 0 if sweep.ok else 1
