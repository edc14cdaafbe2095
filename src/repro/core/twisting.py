"""Recursion twisting — Figure 4(a), the paper's headline transformation.

``run_twisted`` continually re-decides which tree the outer recursion
traverses: whenever the subtree about to be handed to the outer
recursion is no larger than the tree the inner recursion would
traverse, the two recursions swap roles ("the schedule twists").  The
effect is the recursive analog of multi-level loop tiling: nested tiles
emerge in the schedule (visible in Figure 4(b)), reuse distances halve
at every twist, and — because no tile size is ever chosen — the
schedule is simultaneously blocked for every cache level.  That is the
parameterless property of Section 3.2.

Irregular truncation is handled with the same policy objects as
interchange (:mod:`repro.core.truncation`), applied in both orders:

* in *swapped* phases the flag/counter machinery records and honours
  truncations (Figure 6(b) applies "without modification");
* in *regular* phases, ``truncateInner2?`` can cut recursion off
  structurally as in the original code — this is why twisting's work
  overhead is a few percent where interchange's is several-fold
  (Section 4.2) — and, per Section 4.1's closing remark, the outer
  node's truncation flag is checked before launching the inner
  traversal, because a flag set by an enclosing swapped phase covers
  the whole inner subtree about to be traversed.

``cutoff`` implements the Section 7.1 variant: the regular order only
twists into the swapped order while the inner tree being traversed is
larger than the cutoff, trading some locality for less bookkeeping.
``cutoff=None`` is the paper's parameterless transformation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.instruments import NULL_INSTRUMENT, Instrument
from repro.core.recursion import exceeds_safe_depth, recursion_guard
from repro.core.spec import INNER_TREE, OUTER_TREE, NestedRecursionSpec
from repro.core.truncation import make_policy


def run_twisted(
    spec: NestedRecursionSpec,
    instrument: Optional[Instrument] = None,
    cutoff: Optional[int] = None,
    use_counters: bool = False,
    subtree_truncation: bool = True,
) -> None:
    """Execute the spec under recursion twisting.

    Parameters
    ----------
    instrument:
        Probe receiving ops/accesses/work events.
    cutoff:
        Section 7.1 cutoff: only twist out of the regular order while
        the current inner tree has more than ``cutoff`` nodes.  ``None``
        (the default) is the parameterless transformation evaluated in
        Section 6.
    use_counters:
        Use Section 4.3 counters instead of Figure 6(b) flags for
        irregular truncation.
    subtree_truncation:
        Section 4.2 early cut-off of swapped phases when every live
        outer node below is truncated.  On by default, as in the
        paper's evaluated configuration.

    Iteration spaces too deep for safe Python recursion are routed
    through the explicit-stack SoA executor, which emits the exact
    same instrumentation event sequence.
    """
    if exceeds_safe_depth(spec.outer_root, spec.inner_root):
        from repro.core.soa_exec import run_twisted_soa

        run_twisted_soa(
            spec,
            instrument,
            cutoff=cutoff,
            use_counters=use_counters,
            subtree_truncation=subtree_truncation,
        )
        return
    ins = instrument or NULL_INSTRUMENT
    policy = make_policy(spec, use_counters)
    irregular = spec.is_irregular
    truncate_outer = spec.truncate_outer
    truncate_inner1 = spec.truncate_inner1
    truncate_inner2 = spec.truncate_inner2
    work = spec.work
    ins_op = ins.op
    ins_access = ins.access
    ins_work = ins.work

    def recurse_outer(o, i):
        # Regular order (Figure 4a, lines 1-14): o descends the tree it
        # arrived on; each visited o runs an inner traversal of the
        # subtree rooted at i.
        ins_op("call")
        ins_op("trunc_check")
        if truncate_outer(o):
            return
        if irregular and policy.subtree_truncated(o, i, ins):
            # A truncation recorded by an enclosing swapped phase covers
            # this entire inner subtree for o: skip the traversal, but
            # still recurse over o's children, which carry their own
            # (in)dependent truncation state.
            pass
        else:
            recurse_inner(o, i)
        for child in o.children:
            ins_op("size_compare")
            if child.size <= i.size and (cutoff is None or i.size > cutoff):
                ins_op("twist")  # regular -> swapped mode switch
                recurse_outer_swapped(child, i)
            else:
                recurse_outer(child, i)

    def recurse_inner(o, i):
        # Regular-order inner traversal: identical to the original
        # template's recurseInner, including structural truncateInner2?
        # cut-off — in the regular order the implicit skipping semantics
        # of recursion are exactly what we want.
        ins_op("call")
        ins_op("trunc_check")
        if truncate_inner1(i):
            return
        ins_op("visit")
        if irregular:
            ins_op("trunc_check")
            if truncate_inner2(o, i):
                return
        ins_access(INNER_TREE, i)
        ins_access(OUTER_TREE, o)
        ins_work(o, i)
        if work is not None:
            work(o, i)
        for child in i.children:
            recurse_inner(o, child)

    def recurse_outer_swapped(o, i):
        # Swapped order (Figure 4a, lines 16-29): the outer recursion
        # advances through the inner tree; one truncation phase per
        # visited inner node.
        ins_op("call")
        ins_op("trunc_check")
        if truncate_inner1(i):
            return
        frame = policy.open_phase()
        all_truncated = recurse_inner_swapped(o, i, frame)
        if not (subtree_truncation and all_truncated):
            for child in i.children:
                ins_op("size_compare")
                if child.size <= o.size:
                    ins_op("twist")  # swapped -> regular mode switch
                    recurse_outer(o, child)
                else:
                    recurse_outer_swapped(o, child)
        policy.close_phase(frame, ins)

    def recurse_inner_swapped(o, i, frame):
        # Swapped-order inner traversal over the outer tree, with the
        # Figure 6(b)/Section 4.3 truncation machinery.  Returns the
        # all-truncated signal for subtree truncation.
        ins_op("call")
        ins_op("trunc_check")
        if truncate_outer(o):
            return True
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
        recurse_outer(spec.outer_root, spec.inner_root)
