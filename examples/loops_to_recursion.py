#!/usr/bin/env python
"""Loop nests -> twisted recursion: the Section 7.2 connection.

"We can take a doubly-nested loop program — say matrix-vector
multiplication — and translate both loops into this divide-and-conquer
form.  Applying recursion twisting to [the] resulting nested recursion
automatically yields something similar to the cache-oblivious
implementation!"

This example does exactly that: matvec as (1) a plain loop nest over
list trees and (2) a divide-and-conquer range-tree recursion, then
compares their locality under the simulated machine.  Twisting the
divide-and-conquer form produces the recursive blocking of
cache-oblivious algorithms — without a single tile-size parameter.

Run:  python examples/loops_to_recursion.py
"""

import numpy as np

from repro.core import run_original, run_twisted
from repro.core.instruments import CacheProbe, WorkRecorder
from repro.kernels import divide_and_conquer_spec, loop_nest_spec, unit_work_points
from repro.memory import AddressMap, CacheHierarchy
from repro.memory.hierarchy import LevelSpec


def tiny_machine() -> CacheHierarchy:
    return CacheHierarchy(
        [
            LevelSpec("L1", 8, ways=8).build(),
            LevelSpec("L2", 32, ways=8).build(),
        ]
    )


def matvec_specs(n: int, m: int):
    """y = A @ x as loop-nest and divide-and-conquer specs."""
    rng = np.random.default_rng(0)
    a = rng.random((n, m))
    x = rng.random(m)
    y = np.zeros(n)

    def body(row: int, col: int) -> None:
        y[row] += a[row, col] * x[col]

    return a, x, y, body


def register_index_layout(spec, address_map: AddressMap) -> None:
    """One line per index node: the row entry / vector element."""
    from repro.memory import layout_tree

    layout_tree(address_map, spec.outer_root, "outer")
    layout_tree(address_map, spec.inner_root, "inner")


def main() -> None:
    n = m = 64

    # 1. The plain loop nest: correctness baseline.
    a, x, y, body = matvec_specs(n, m)
    run_original(loop_nest_spec(n, m, body))
    assert np.allclose(y, a @ x), "loop-nest matvec is wrong"
    print(f"loop-nest matvec ({n}x{m}): correct")

    # 2. Divide-and-conquer recursion, original order == loop order.
    a, x, y, body = matvec_specs(n, m)
    dnc = divide_and_conquer_spec(n, m, body)
    recorder = WorkRecorder()
    run_original(dnc, instrument=recorder)
    assert np.allclose(y, a @ x)
    order = unit_work_points(recorder.points)
    assert order == [(i, j) for i in range(n) for j in range(m)]
    print("divide-and-conquer original order == row-major loop order")

    # 3. Twisting the divide-and-conquer form: recursive blocking.
    a, x, y, body = matvec_specs(n, m)
    dnc = divide_and_conquer_spec(n, m, body)
    recorder = WorkRecorder()
    run_twisted(dnc, instrument=recorder)
    assert np.allclose(y, a @ x), "twisted matvec is wrong"
    blocked = unit_work_points(recorder.points)
    print(f"twisted body order, first 16 points: {blocked[:16]}")
    print("  ^ note the recursive tiles instead of full rows")

    # 4. Locality on a tiny machine: x is the reused vector.
    results = {}
    for name, runner in [("loops", run_original), ("twisted", run_twisted)]:
        a, x, y, body = matvec_specs(n, m)
        spec = divide_and_conquer_spec(n, m, body)
        address_map = AddressMap()
        register_index_layout(spec, address_map)
        machine = tiny_machine()
        probe = CacheProbe(address_map, machine)
        runner(spec, instrument=probe)
        results[name] = machine.stats_by_name()
        l2 = results[name]["L2"]
        print(f"{name:>8s}: L2 miss rate {l2.miss_rate:6.2%} "
              f"({l2.misses:,d} misses / {l2.accesses:,d} accesses)")
    assert (
        results["twisted"]["L2"].misses < results["loops"]["L2"].misses
    ), "twisting should reduce L2 misses on the reused vector"
    print("twisting the loop nest reduced cache misses, parameter-free")


if __name__ == "__main__":
    main()
