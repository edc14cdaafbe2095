"""Recursion-depth management for deep iteration spaces.

The faithful executors are written recursively, like the paper's
listings.  CPython's default recursion limit (1000) is too small for
the degenerate (list-shaped) trees that make the template "devolve into
a doubly-nested loop" (Section 2.1), so every executor wraps its run in
:func:`recursion_guard`, which raises the limit to cover the combined
depth of the two trees plus interpreter headroom and restores it
afterwards.

Raising the limit has a ceiling: past
:data:`MAX_SAFE_RECURSION_LIMIT`, deep Python recursion risks
exhausting the C stack (a hard crash, not a catchable
``RecursionError``, on interpreters whose frames consume native
stack).  The recursive executors therefore test
:func:`exceeds_safe_depth` up front and route such spaces through the
explicit-stack SoA executors (:mod:`repro.core.soa_exec`), which are
event-for-event identical and have no depth limit;
:func:`recursion_guard` itself refuses to raise the limit past the
ceiling with a :class:`~repro.errors.ScheduleError` as a last line of
defense.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ScheduleError
from repro.spaces.node import IndexNode, tree_depth

#: Stack frames reserved for the interpreter, pytest, and instruments.
_HEADROOM = 256

#: Frames one template level consumes per tree level (outer + inner
#: recursive calls, instruments, predicate calls).
_FRAMES_PER_LEVEL = 4

#: Never raise the interpreter recursion limit beyond this.  Python
#: frames may consume native stack (so a high limit can turn a tidy
#: ``RecursionError`` into a C-stack overflow); 10k covers every sane
#: balanced workload while staying far from typical 8 MB stacks.
MAX_SAFE_RECURSION_LIMIT = 10_000


def required_limit(outer_root: IndexNode, inner_root: IndexNode) -> int:
    """A recursion limit sufficient for any schedule over the two trees.

    Every schedule's call depth is bounded by the sum of the two tree
    depths (the twisted schedule interleaves the recursions but each
    call still descends one of the trees by one level).
    """
    depth = tree_depth(outer_root) + tree_depth(inner_root)
    return depth * _FRAMES_PER_LEVEL + _HEADROOM


def exceeds_safe_depth(outer_root: IndexNode, inner_root: IndexNode) -> bool:
    """True when the trees are too deep for the recursive executors.

    Callers holding such a pair should run the explicit-stack SoA
    executor instead (the recursive executors do so automatically).
    """
    return required_limit(outer_root, inner_root) > MAX_SAFE_RECURSION_LIMIT


@contextmanager
def recursion_guard(
    outer_root: IndexNode,
    inner_root: IndexNode,
    minimum: Optional[int] = None,
) -> Iterator[None]:
    """Temporarily raise the interpreter recursion limit if needed."""
    needed = max(required_limit(outer_root, inner_root), minimum or 0)
    if needed > MAX_SAFE_RECURSION_LIMIT:
        raise ScheduleError(
            f"iteration space needs a recursion limit of {needed}, past "
            f"the safe ceiling of {MAX_SAFE_RECURSION_LIMIT}; run it "
            "through the explicit-stack executors in repro.core.soa_exec"
        )
    previous = sys.getrecursionlimit()
    if needed > previous:
        sys.setrecursionlimit(needed)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)
