"""Recursion interchange — Figure 3, with the Section 4 machinery.

``run_interchanged`` executes a spec "row-by-row": the outer recursion
traverses the *inner* tree and the inner recursion traverses the
*outer* tree.  On a rectangular space this is precisely the transposed
enumeration of Figure 1(c).

When the spec carries an irregular ``truncateInner2?``, the
interchanged code cannot cut off recursion the way the original could
— it must visit the full cross product and use truncation state
(flags, Figure 6(b), or counters, Section 4.3) to suppress exactly the
iterations the original skips.  This is the *work explosion* the paper
quantifies in Section 4.2 (PC: 1.25 G iterations originally, 5.61 G
interchanged), and why plain interchange is a stepping stone rather
than an optimization: twisting inherits this machinery but mostly runs
in the original order, so it pays only a few percent.

``subtree_truncation=True`` enables the Section 4.2 optimization:
when an entire outer subtree is truncated for the current inner node,
the swapped recursion over the inner tree is cut off early too.
"""

from __future__ import annotations

from typing import Optional

from repro.core.instruments import NULL_INSTRUMENT, Instrument
from repro.core.recursion import exceeds_safe_depth, recursion_guard
from repro.core.spec import INNER_TREE, OUTER_TREE, NestedRecursionSpec
from repro.core.truncation import make_policy


def run_interchanged(
    spec: NestedRecursionSpec,
    instrument: Optional[Instrument] = None,
    use_counters: bool = False,
    subtree_truncation: bool = False,
) -> None:
    """Execute the spec in the interchanged (row-by-row) order.

    Parameters
    ----------
    instrument:
        Probe receiving ops/accesses/work events (see
        :mod:`repro.core.instruments`).
    use_counters:
        Use the Section 4.3 counter optimization instead of Figure
        6(b) flags (irregular specs only; ignored otherwise).
    subtree_truncation:
        Enable the Section 4.2 early cut-off when a whole outer
        subtree is truncated for the current inner node.

    Iteration spaces too deep for safe Python recursion are routed
    through the explicit-stack SoA executor, which emits the exact
    same instrumentation event sequence.
    """
    if exceeds_safe_depth(spec.outer_root, spec.inner_root):
        from repro.core.soa_exec import run_interchanged_soa

        run_interchanged_soa(
            spec,
            instrument,
            use_counters=use_counters,
            subtree_truncation=subtree_truncation,
        )
        return
    ins = instrument or NULL_INSTRUMENT
    policy = make_policy(spec, use_counters)
    irregular = spec.is_irregular
    truncate_outer = spec.truncate_outer
    truncate_inner1 = spec.truncate_inner1
    work = spec.work
    ins_op = ins.op
    ins_access = ins.access
    ins_work = ins.work

    def recurse_outer_swapped(o, i):
        # The outer recursion of the interchanged code: traverses the
        # inner tree (Figure 3, lines 1-8), opening one truncation
        # phase per visited inner node.
        ins_op("call")
        ins_op("trunc_check")
        if truncate_inner1(i):
            return
        frame = policy.open_phase()
        all_truncated = recurse_inner_swapped(o, i, frame)
        if not (subtree_truncation and all_truncated):
            for child in i.children:
                recurse_outer_swapped(o, child)
        policy.close_phase(frame, ins)

    def recurse_inner_swapped(o, i, frame):
        # The inner recursion of the interchanged code: traverses the
        # outer tree for a fixed inner node (Figure 3, lines 10-17,
        # plus the Figure 6(b) flag handling).  Returns True when every
        # live outer node in this subtree is truncated for ``i`` — the
        # signal consumed by subtree truncation.
        ins_op("call")
        ins_op("trunc_check")
        if truncate_outer(o):
            return True  # outside the iteration space: vacuously truncated
        ins_op("visit")
        if irregular:
            skipped = policy.check_and_mark(o, i, frame, ins)
        else:
            skipped = False
        if not skipped:
            ins_access(INNER_TREE, i)
            ins_access(OUTER_TREE, o)
            ins_work(o, i)
            if work is not None:
                work(o, i)
        all_truncated = skipped
        for child in o.children:
            child_truncated = recurse_inner_swapped(child, i, frame)
            all_truncated = all_truncated and child_truncated
        return all_truncated

    spec.reset_truncation_state()
    with recursion_guard(spec.outer_root, spec.inner_root):
        recurse_outer_swapped(spec.outer_root, spec.inner_root)
