"""The original (untransformed) schedule — Figure 2 of the paper.

``run_original`` executes a :class:`~repro.core.spec.NestedRecursionSpec`
exactly as the template's source code would: for each outer-tree node
(depth-first, pre-order), traverse the inner tree, truncating the inner
recursion on ``truncateInner1?`` and — when present — the irregular
``truncateInner2?``.  On a rectangular space this is the
"column-by-column" enumeration of Figure 1(c).

The executor reports instrumentation events with the conventions shared
by all schedules (see :mod:`repro.core.instruments`): one ``call`` plus
one ``trunc_check`` op per recursive invocation, one extra
``trunc_check`` when ``truncateInner2?`` is evaluated, and one access
to each of ``o`` and ``i`` per executed work point (the Section 3.2
access model: "work(o, i) accesses exactly node o and node i").
"""

from __future__ import annotations

from typing import Optional

from repro.core.instruments import NULL_INSTRUMENT, Instrument
from repro.core.recursion import exceeds_safe_depth, recursion_guard
from repro.core.spec import INNER_TREE, OUTER_TREE, NestedRecursionSpec


def run_original(
    spec: NestedRecursionSpec,
    instrument: Optional[Instrument] = None,
) -> None:
    """Execute the spec in the original nested-recursion order.

    Iteration spaces too deep for safe Python recursion are routed
    through the explicit-stack SoA executor, which emits the exact
    same instrumentation event sequence (see
    :mod:`repro.core.soa_exec`'s exactness contract).
    """
    if exceeds_safe_depth(spec.outer_root, spec.inner_root):
        from repro.core.soa_exec import run_original_soa

        run_original_soa(spec, instrument)
        return
    ins = instrument or NULL_INSTRUMENT
    truncate_outer = spec.truncate_outer
    truncate_inner1 = spec.truncate_inner1
    truncate_inner2 = spec.truncate_inner2
    work = spec.work
    ins_op = ins.op
    ins_access = ins.access
    ins_work = ins.work

    def recurse_outer(o, i):
        ins_op("call")
        ins_op("trunc_check")
        if truncate_outer(o):
            return
        recurse_inner(o, i)
        for child in o.children:
            recurse_outer(child, i)

    def recurse_inner(o, i):
        ins_op("call")
        ins_op("trunc_check")
        if truncate_inner1(i):
            return
        # One "visit" per (o, i) point reached — the "iterations" metric
        # of Section 4.2 (visited points, whether or not work executes).
        ins_op("visit")
        if truncate_inner2 is not None:
            ins_op("trunc_check")
            if truncate_inner2(o, i):
                return
        # Inner node first: work(o, i) reads the inner tree datum before
        # the outer accumulator.  This ordering is what reproduces the
        # paper's Section 3.2 reuse distances exactly (e.g. [inf, 8, 8,
        # ...] for inner node 5 in the original schedule).
        ins_access(INNER_TREE, i)
        ins_access(OUTER_TREE, o)
        ins_work(o, i)
        if work is not None:
            work(o, i)
        for child in i.children:
            recurse_inner(o, child)

    spec.reset_truncation_state()
    with recursion_guard(spec.outer_root, spec.inner_root):
        recurse_outer(spec.outer_root, spec.inner_root)
