#!/usr/bin/env python
"""Quantifying schedules: tiles, balance, and reuse dominance.

The paper argues twisting's quality visually (Figure 4(b)'s tiles) and
by CDF (Figure 5).  The `repro.analysis` tools turn both arguments into
numbers; this example runs them on a mid-size Tree Join.

Run:  python examples/schedule_analysis.py
"""

from repro.analysis import (
    compare_profiles,
    dominance,
    window_balance,
    working_set_fraction,
)
from repro.core import NestedRecursionSpec, WorkRecorder
from repro.core.schedules import INTERCHANGE, ORIGINAL, TWIST
from repro.spaces import balanced_tree

NODES = 255


def spec_factory() -> NestedRecursionSpec:
    return NestedRecursionSpec(balanced_tree(NODES), balanced_tree(NODES))


def show_tile_structure() -> None:
    print(f"--- window balance (squareness), TJ {NODES}x{NODES} ---")
    print("window   original   twisted    (1.0 = square tiles)")
    recorded = {}
    for name, schedule in (("original", ORIGINAL), ("twisted", TWIST)):
        recorder = WorkRecorder()
        schedule.run(spec_factory(), instrument=recorder)
        recorded[name] = recorder.points
    for window in (16, 64, 256, 1024):
        original = window_balance(recorded["original"], window)
        twisted = window_balance(recorded["twisted"], window)
        print(f"{window:>6d}   {original:8.3f}   {twisted:8.3f}")
    print("twisting's windows stay square at every scale: nested tiles.\n")


def show_reuse_dominance() -> None:
    print(f"--- reuse-distance CDF comparison ---")
    profiles = compare_profiles(spec_factory, [ORIGINAL, INTERCHANGE, TWIST])
    report = dominance(profiles["twist"], profiles["original"], 2 * NODES)
    print("r        original   twisted")
    for distance, twisted_frac, original_frac in zip(
        report.distances, report.first, report.second
    ):
        print(f"{distance:>6d}   {original_frac:8.3f}  {twisted_frac:8.3f}")
    print(f"twisted CDF >= original at {report.dominance_fraction:.0%} of sizes")
    print("(the few losses are at tiny r: the paper's 'not uniformly')\n")

    print("--- predicted hit rates (stack-distance theorem) ---")
    for lines in (32, 128, 512):
        print(
            f"cache of {lines:>4d} lines: original "
            f"{working_set_fraction(profiles['original'], lines):6.1%}, "
            f"twisted {working_set_fraction(profiles['twist'], lines):6.1%}"
        )


if __name__ == "__main__":
    show_tile_structure()
    show_reuse_dominance()
