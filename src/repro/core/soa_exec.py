"""Explicit-stack executors over structure-of-arrays tree storage.

The recursive executors (:mod:`repro.core.executors`,
:mod:`repro.core.interchange`, :mod:`repro.core.twisting`) are the
paper's listings: one Python call per node visit and one ``work(o, i)``
call per iteration, with a recursion depth bounded by the trees'.
These executors run every schedule — Figure 2's original, §2's
interchange, §3's twisting with the §4 flags, counters and subtree
truncation, and §7.1's cutoff — on explicit stacks of *integers*
instead: a packed :class:`~repro.spaces.soa.SoATree` view (built once
per root and cached, without recursion) gives each run

* pre-order **rank** space, where a subtree is always the contiguous
  run ``[rank, rank + span[rank])`` — whole-subtree dispatch and
  subtree skips are slices and additions, independent of the storage
  linearization;
* plain-list accelerators (sizes, stored numbers, pre-reversed child
  rank lists) that replace attribute chasing in the hot loops;
* layout **positions** (``rank -> position`` under ``preorder``/
  ``bfs``/``veb``), so specs that provide a SoA-native ``work_batch_soa``
  receive gathered *column indices* instead of node objects and can
  vectorize the payload gather itself.

Having no depth limit, they are also where the recursive executors
send trees too deep to recurse (:mod:`repro.core.recursion`).

Work dispatch picks one of three modes per run:

``inline``
    ``truncation_observes_work`` specs (dual-tree NN/KNN/VP, KDE)
    execute scalar ``work`` calls at their schedule position.  Deferred
    blocks would have to be barrier-flushed before every stateful
    ``truncateInner2?``, which shreds them; executing inline costs
    nothing extra and keeps the explicit-stack traversal savings.

``positions``
    Specs with ``work_batch_soa`` (and stateless truncation) defer
    layout positions into two integer lists and flush blocks through
    the SoA kernel — no node objects on the hot path at all.

``nodes``
    Everything else (PC, plain ``work_batch`` specs, parallel
    single-node-view tasks) defers node pairs into
    :class:`~repro.core.batched.BatchDispatcher` (``work_batch``
    flushes, per-outer barriers).

The Section 4 flag/counter machinery runs on per-run arrays indexed by
outer rank (a ``bytearray`` of flags, a list of counters) instead of
policy objects over node scratch state — same decisions, same
instrument events, no writes to shared trees (so SoA runs are always
truncation-isolated in the :mod:`repro.core.parallel` sense).

Exactness contract
------------------

* **Instrumentation is bit-identical.**  All instrument events (ops,
  accesses, work points) are emitted inline during the traversal, in
  exactly the order the recursive executors emit them; only the
  user's ``work`` calls are deferred.
* **Work order is preserved.**  Deferred pairs are dispatched in the
  order they were reached.
* **Stateful truncation never observes deferred state** (the
  ``inline`` mode, or the dispatcher's barrier).

The parity suites (``tests/unit/core/test_soa_exec.py``,
``test_batched.py``, ``test_iterative*.py`` and their property
counterparts) assert event-for-event equality for all benchmarks under
flags and counters, instrumented and not, at any ``batch_size``.

When the run is uninstrumented *and* the spec never truncates (TJ,
MM), a bulk mode collapses each inner traversal into C-speed list
extends over rank slices — this is where the headline wall-clock
speedups come from.
"""

from __future__ import annotations

from typing import Optional

from repro.core.batched import (
    DEFAULT_BATCH_SIZE,
    BatchDispatcher,
    _as_prune_list,
    _block_truncation,
)
from repro.core.instruments import NULL_INSTRUMENT, Instrument
from repro.core.spec import INNER_TREE, OUTER_TREE, NestedRecursionSpec, _never
from repro.errors import ScheduleError
from repro.spaces.soa import SoATree, soa_view

#: Work-dispatch modes (documented above); chosen once per run.
_INLINE = "inline"
_POSITIONS = "positions"
_NODES = "nodes"


def _dispatch_mode(spec: NestedRecursionSpec) -> str:
    """Pick the work-dispatch mode for one run (see module docstring)."""
    if (
        spec.truncation_observes_work
        and spec.truncate_inner2 is not None
        and spec.work is not None
    ):
        return _INLINE
    if spec.work_batch_soa is not None and not spec.truncation_observes_work:
        return _POSITIONS
    return _NODES


def dispatch_mode(spec: NestedRecursionSpec) -> str:
    """Public view of the per-run work-dispatch mode.

    The backend-conformance analyzer
    (:mod:`repro.transform.lint.backend`) keys its ``soa`` verdict on
    this: ``inline`` runs the scalar kernel itself (nothing to prove),
    ``positions`` stands or falls with ``work_batch_soa``, and
    ``nodes`` inherits the analyzer's ``batched`` verdict on the
    node-block dispatcher (:class:`~repro.core.batched.BatchDispatcher`).
    """
    return _dispatch_mode(spec)


def _bulk_eligible(spec: NestedRecursionSpec, ins: Instrument) -> bool:
    """May the run skip per-point bookkeeping entirely?

    True when nothing can observe the per-point pacing: no instrument
    is attached, no truncation predicate can fire (the spec's
    predicates are the shared never-truncate defaults), and there is
    work to dispatch (scalar, node-block or SoA-native).
    """
    return (
        ins is NULL_INSTRUMENT
        and spec.truncate_inner2 is None
        and spec.truncate_inner1 is _never
        and spec.truncate_outer is _never
        and (
            spec.work is not None
            or spec.work_batch is not None
            or spec.work_batch_soa is not None
        )
    )


class PositionDispatcher:
    """Deferred (outer, inner) layout positions, flushed as blocks.

    The SoA analog of :class:`~repro.core.batched.BatchDispatcher`:
    pending pairs are two parallel ``int`` lists; a flush hands them —
    with the two packed views — to the spec's ``work_batch_soa``, which
    must be semantically equivalent to calling ``work`` on each
    positioned pair in order.  Only used for stateless-truncation
    specs, so there is no barrier machinery.
    """

    __slots__ = ("fn", "outer", "inner", "batch_size", "_os", "_is")

    def __init__(
        self,
        fn,
        outer: SoATree,
        inner: SoATree,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self.fn = fn
        self.outer = outer
        self.inner = inner
        self.batch_size = batch_size
        self._os: list[int] = []
        self._is: list[int] = []

    def add(self, o_position: int, i_position: int) -> None:
        """Defer one positioned pair."""
        self._os.append(o_position)
        self._is.append(i_position)
        if len(self._os) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        """Dispatch pending pairs in order; clears the lists in place."""
        if not self._os:
            return
        self.fn(self.outer, self.inner, self._os, self._is)
        del self._os[:]
        del self._is[:]


def run_original_soa(
    spec: NestedRecursionSpec,
    instrument: Optional[Instrument] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    order: str = "preorder",
) -> None:
    """SoA counterpart of :func:`repro.core.executors.run_original`.

    ``order`` selects the storage linearization of the packed views;
    the traversal itself runs in rank space and is layout-independent,
    so every order produces identical results and events — only the
    memory-access pattern of the payload gathers changes.
    """
    ins = instrument or NULL_INSTRUMENT
    instrumented = ins is not NULL_INSTRUMENT
    outer = soa_view(spec.outer_root, order)
    inner = soa_view(spec.inner_root, order)
    o_nodes = outer.rank_nodes
    o_kids = outer.rank_children_rev
    i_nodes = inner.rank_nodes
    i_kids = inner.rank_children_rev
    i_number = inner.rank_number
    o_positions = outer.rank_pos_list
    i_positions = inner.rank_pos_list
    truncate_outer = spec.truncate_outer
    truncate_inner1 = spec.truncate_inner1
    truncate_inner2 = spec.truncate_inner2
    work = spec.work
    ins_op = ins.op
    ins_access = ins.access
    ins_work = ins.work

    mode = _dispatch_mode(spec)
    inline = mode is _INLINE
    by_position = mode is _POSITIONS
    if inline:
        dispatcher = None
        needs_barrier = False
    elif by_position:
        dispatcher = PositionDispatcher(
            spec.work_batch_soa, outer, inner, batch_size
        )
        needs_barrier = False
    else:
        dispatcher = BatchDispatcher(spec, batch_size)
        needs_barrier = dispatcher.track_outers and truncate_inner2 is not None
    bulk = _bulk_eligible(spec, ins)
    block_t2 = None if inline else _block_truncation(spec, instrumented)
    if block_t2 is not None:
        i_vals = i_positions if by_position else i_nodes
        i_span = inner.rank_span
    inner_count = inner.num_nodes

    outer_stack = [0]
    while outer_stack:
        orank = outer_stack.pop()
        o = o_nodes[orank]
        if instrumented:
            ins_op("call")
            ins_op("trunc_check")
        if truncate_outer(o):
            continue
        if bulk:
            # Whole inner pre-order in one deferred block.
            if by_position:
                pending_os, pending_is = dispatcher._os, dispatcher._is
                pending_os.extend([o_positions[orank]] * inner_count)
                pending_is.extend(i_positions)
                if len(pending_os) >= batch_size:
                    dispatcher.flush()
            else:
                dispatcher.add_many([o] * inner_count, i_nodes)
        elif (
            block_t2 is not None
            and (prune := _as_prune_list(block_t2(o))) is not None
        ):
            _emit_pruned_subtree(
                dispatcher,
                o_positions[orank] if by_position else o,
                0,
                i_vals,
                i_span,
                i_number,
                i_kids,
                prune,
            )
        else:
            inner_stack = [0]
            while inner_stack:
                irank = inner_stack.pop()
                i = i_nodes[irank]
                if instrumented:
                    ins_op("call")
                    ins_op("trunc_check")
                if truncate_inner1(i):
                    continue
                if instrumented:
                    ins_op("visit")
                if truncate_inner2 is not None:
                    if needs_barrier:
                        dispatcher.barrier(o)
                    if instrumented:
                        ins_op("trunc_check")
                    if truncate_inner2(o, i):
                        continue
                if instrumented:
                    ins_access(INNER_TREE, i)
                    ins_access(OUTER_TREE, o)
                    ins_work(o, i)
                if inline:
                    work(o, i)
                elif by_position:
                    dispatcher.add(o_positions[orank], i_positions[irank])
                else:
                    dispatcher.add(o, i)
                kids = i_kids[irank]
                if kids:
                    inner_stack.extend(kids)
        kids = o_kids[orank]
        if kids:
            outer_stack.extend(kids)
    if dispatcher is not None:
        dispatcher.flush()


def _emit_pruned_subtree(
    dispatcher,
    o_val,
    irank: int,
    i_vals: list,
    i_span: list,
    i_number: list,
    i_kids: list,
    prune,
) -> None:
    """Emit the inner subtree at ``irank`` under a pre-evaluated prune.

    ``prune`` is the normalized block-truncation result: ``True`` (all
    pruned — nothing to emit), ``False`` (nothing pruned — the whole
    subtree collapses to one contiguous rank-span block, since the
    generic traversal visits it in exactly pre-order), or a list
    indexed by stored inner ``number``.  Appends ``(o_val, i_vals[r])``
    straight into the dispatcher's pending lists; ``i_vals`` is the
    per-rank emit payload (layout positions or nodes, as in
    :func:`_run_twisted_bulk`).  The caller passes the rank lists it
    already holds: this runs once per regular tile, so re-reading them
    from the packed view here would dominate a pruned twist.
    """
    if prune is True:
        return
    pending_os, pending_is = dispatcher._os, dispatcher._is
    if prune is False:
        segment = i_vals[irank : irank + i_span[irank]]
        pending_os.extend([o_val] * len(segment))
        pending_is.extend(segment)
    else:
        append_o = pending_os.append
        append_i = pending_is.append
        stack = [irank]
        while stack:
            rank = stack.pop()
            if prune[i_number[rank]]:
                continue
            append_o(o_val)
            append_i(i_vals[rank])
            kids = i_kids[rank]
            if kids:
                stack.extend(kids)
    if len(pending_os) >= dispatcher.batch_size:
        dispatcher.flush()


#: Work-stack tags of the interchanged/twisted state machines.
_CLOSE_PHASE = 0
_VISIT_SWAPPED = 1
_VISIT_REGULAR = 2
_DISPATCH_REGULAR = 3
_DISPATCH_SWAPPED = 4


def _run_twisted_bulk(
    dispatcher,
    by_position: bool,
    outer: SoATree,
    inner: SoATree,
    cutoff: Optional[int],
    batch_size: int,
) -> None:
    """Uninstrumented regular-spec twist, collapsed to emits and pushes.

    Bulk eligibility means no instrument, no truncation predicates, and
    work to dispatch — so the Figure 4(a) state machine loses its
    phases, frames, and per-node predicate calls, and (because subtree
    sizes are static) each child's twist-or-not decision can be
    resolved at *push* time instead of via a dispatch entry popped
    later: the executed (o, i) sequence is identical, only the
    now-unobservable ``size_compare`` timing moves.  This is the hot
    loop behind the TJ/MM twist wall-clock numbers.

    The per-rank value lists double as the emit payload: layout
    positions when dispatching through ``work_batch_soa``, the original
    nodes when dispatching through the node-block engine — the loop
    body is identical either way.
    """
    o_vals = outer.rank_pos_list if by_position else outer.rank_nodes
    i_vals = inner.rank_pos_list if by_position else inner.rank_nodes
    o_size = outer.rank_size
    i_size = inner.rank_size
    o_span = outer.rank_span
    i_span = inner.rank_span
    o_kids = outer.rank_children_rev
    i_kids = inner.rank_children_rev
    pending_os, pending_is = dispatcher._os, dispatcher._is
    append_o = pending_os.append
    append_i = pending_is.append
    extend_o = pending_os.extend
    extend_i = pending_is.extend
    flush = dispatcher.flush
    no_cutoff = cutoff is None

    # Entries: (regular?, outer rank, inner rank); the root tile always
    # starts in regular order.
    stack: list[tuple] = [(True, 0, 0)]
    while stack:
        regular, orank, irank = stack.pop()
        if regular:
            end = irank + i_span[irank]
            if end - irank == 1:
                append_o(o_vals[orank])
                append_i(i_vals[irank])
            else:
                extend_o([o_vals[orank]] * (end - irank))
                extend_i(i_vals[irank:end])
            if len(pending_os) >= batch_size:
                flush()
            size = i_size[irank]
            swap = no_cutoff or size > cutoff
            for child in o_kids[orank]:
                stack.append(
                    (not (swap and o_size[child] <= size), child, irank)
                )
        else:
            end = orank + o_span[orank]
            if end - orank == 1:
                append_o(o_vals[orank])
                append_i(i_vals[irank])
            else:
                extend_o(o_vals[orank:end])
                extend_i([i_vals[irank]] * (end - orank))
            if len(pending_os) >= batch_size:
                flush()
            size = o_size[orank]
            for child in i_kids[irank]:
                stack.append((i_size[child] <= size, orank, child))
    flush()


def run_interchanged_soa(
    spec: NestedRecursionSpec,
    instrument: Optional[Instrument] = None,
    use_counters: bool = False,
    subtree_truncation: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
    order: str = "preorder",
) -> None:
    """SoA counterpart of :func:`repro.core.interchange.run_interchanged`."""
    ins = instrument or NULL_INSTRUMENT
    instrumented = ins is not NULL_INSTRUMENT
    outer = soa_view(spec.outer_root, order)
    inner = soa_view(spec.inner_root, order)
    o_nodes = outer.rank_nodes
    o_kids = outer.rank_children_rev
    i_nodes = inner.rank_nodes
    i_kids = inner.rank_children_rev
    i_number = inner.rank_number
    i_size = inner.rank_size
    o_positions = outer.rank_pos_list
    i_positions = inner.rank_pos_list
    irregular = spec.is_irregular
    truncate_outer = spec.truncate_outer
    truncate_inner1 = spec.truncate_inner1
    truncate_inner2 = spec.truncate_inner2
    work = spec.work
    ins_op = ins.op
    ins_access = ins.access
    ins_work = ins.work

    mode = _dispatch_mode(spec)
    inline = mode is _INLINE
    by_position = mode is _POSITIONS
    if inline:
        dispatcher = None
        needs_barrier = False
    elif by_position:
        dispatcher = PositionDispatcher(
            spec.work_batch_soa, outer, inner, batch_size
        )
        needs_barrier = False
    else:
        dispatcher = BatchDispatcher(spec, batch_size)
        needs_barrier = dispatcher.track_outers and irregular
    use_flags = irregular and not use_counters
    flags = bytearray(outer.num_nodes) if use_flags else None
    counters = [-1] * outer.num_nodes if irregular and use_counters else None
    bulk = _bulk_eligible(spec, ins)
    outer_count = outer.num_nodes

    # Entries: (tag, inner rank, phase frame of flagged outer ranks).
    stack: list[tuple] = [(_VISIT_SWAPPED, 0, None)]
    while stack:
        tag, irank, frame = stack.pop()
        if tag == _CLOSE_PHASE:
            if frame:
                for flagged in frame:
                    if instrumented:
                        ins_op("flag_unset")
                    flags[flagged] = 0
            continue
        i = i_nodes[irank]
        if instrumented:
            ins_op("call")
            ins_op("trunc_check")
        if truncate_inner1(i):
            continue
        frame = [] if use_flags else None
        if counters is not None:
            number = i_number[irank]
            if number < 0:
                raise ScheduleError(
                    "counter truncation requires pre-order numbering on the "
                    "inner tree; build trees via repro.spaces (finalize_tree)"
                )
            boundary = number + i_size[irank]
        if bulk:
            if by_position:
                pending_os, pending_is = dispatcher._os, dispatcher._is
                pending_os.extend(o_positions)
                pending_is.extend([i_positions[irank]] * outer_count)
                if len(pending_os) >= batch_size:
                    dispatcher.flush()
            else:
                dispatcher.add_many(o_nodes, [i] * outer_count)
            all_truncated = False
        else:
            all_truncated = True
            outer_stack = [0]
            while outer_stack:
                orank = outer_stack.pop()
                o = o_nodes[orank]
                if instrumented:
                    ins_op("call")
                    ins_op("trunc_check")
                if truncate_outer(o):
                    continue
                if instrumented:
                    ins_op("visit")
                if irregular:
                    if needs_barrier:
                        dispatcher.barrier(o)
                    # check_and_mark, inlined over rank-indexed state.
                    if use_flags:
                        if instrumented:
                            ins_op("flag_check")
                        if flags[orank]:
                            skipped = True
                        else:
                            if instrumented:
                                ins_op("trunc_check")
                            if truncate_inner2(o, i):
                                if instrumented:
                                    ins_op("flag_set")
                                flags[orank] = 1
                                frame.append(orank)
                                skipped = True
                            else:
                                skipped = False
                    else:
                        if instrumented:
                            ins_op("counter_check")
                        if number < counters[orank]:
                            skipped = True
                        else:
                            if instrumented:
                                ins_op("trunc_check")
                            if truncate_inner2(o, i):
                                if instrumented:
                                    ins_op("counter_set")
                                counters[orank] = boundary
                                skipped = True
                            else:
                                skipped = False
                else:
                    skipped = False
                if not skipped:
                    if instrumented:
                        ins_access(INNER_TREE, i)
                        ins_access(OUTER_TREE, o)
                        ins_work(o, i)
                    if inline:
                        work(o, i)
                    elif by_position:
                        dispatcher.add(o_positions[orank], i_positions[irank])
                    else:
                        dispatcher.add(o, i)
                    all_truncated = False
                kids = o_kids[orank]
                if kids:
                    outer_stack.extend(kids)
        stack.append((_CLOSE_PHASE, -1, frame))
        if not (subtree_truncation and all_truncated):
            for child in i_kids[irank]:
                stack.append((_VISIT_SWAPPED, child, None))
    if dispatcher is not None:
        dispatcher.flush()


def run_twisted_soa(
    spec: NestedRecursionSpec,
    instrument: Optional[Instrument] = None,
    cutoff: Optional[int] = None,
    use_counters: bool = False,
    subtree_truncation: bool = True,
    batch_size: int = DEFAULT_BATCH_SIZE,
    order: str = "preorder",
) -> None:
    """SoA counterpart of :func:`repro.core.twisting.run_twisted`.

    The full Figure 4(a) state machine over ranks: size comparisons
    read the stored-size list, tile dispatch pushes integer ranks, and
    the Section 4 flag/counter machinery runs on per-run arrays.
    """
    ins = instrument or NULL_INSTRUMENT
    instrumented = ins is not NULL_INSTRUMENT
    outer = soa_view(spec.outer_root, order)
    inner = soa_view(spec.inner_root, order)
    o_nodes = outer.rank_nodes
    o_kids = outer.rank_children_rev
    o_size = outer.rank_size
    i_nodes = inner.rank_nodes
    i_kids = inner.rank_children_rev
    i_size = inner.rank_size
    i_number = inner.rank_number
    o_positions = outer.rank_pos_list
    i_positions = inner.rank_pos_list
    irregular = spec.is_irregular
    truncate_outer = spec.truncate_outer
    truncate_inner1 = spec.truncate_inner1
    truncate_inner2 = spec.truncate_inner2
    work = spec.work
    ins_op = ins.op
    ins_access = ins.access
    ins_work = ins.work

    mode = _dispatch_mode(spec)
    inline = mode is _INLINE
    by_position = mode is _POSITIONS
    if inline:
        dispatcher = None
        needs_barrier = False
    elif by_position:
        dispatcher = PositionDispatcher(
            spec.work_batch_soa, outer, inner, batch_size
        )
        needs_barrier = False
    else:
        dispatcher = BatchDispatcher(spec, batch_size)
        needs_barrier = dispatcher.track_outers and irregular
    use_flags = irregular and not use_counters
    flags = bytearray(outer.num_nodes) if use_flags else None
    counters = [-1] * outer.num_nodes if irregular and use_counters else None
    bulk = _bulk_eligible(spec, ins)
    if bulk:
        # Bulk eligibility rules out the inline mode (it needs a
        # ``truncateInner2?``), every predicate, and instrumentation —
        # the whole state machine below collapses to the tight loop.
        _run_twisted_bulk(
            dispatcher, by_position, outer, inner, cutoff, batch_size
        )
        return
    block_t2 = None if inline else _block_truncation(spec, instrumented)
    if block_t2 is not None:
        i_vals = i_positions if by_position else i_nodes
        i_span = inner.rank_span
    # Block decisions are memoized per outer rank: an outer node's
    # regular phases recur across many tiles.
    prune_cache: dict[int, object] = {}

    # Entries: (tag, outer rank, inner rank, phase frame).
    stack: list[tuple] = [(_VISIT_REGULAR, 0, 0, None)]
    while stack:
        tag, orank, irank, frame = stack.pop()
        if tag == _CLOSE_PHASE:
            if frame:
                for flagged in frame:
                    if instrumented:
                        ins_op("flag_unset")
                    flags[flagged] = 0
            continue
        if tag == _DISPATCH_REGULAR:
            if instrumented:
                ins_op("size_compare")
            if o_size[orank] <= i_size[irank] and (
                cutoff is None or i_size[irank] > cutoff
            ):
                if instrumented:
                    ins_op("twist")
                tag = _VISIT_SWAPPED
            else:
                tag = _VISIT_REGULAR
        elif tag == _DISPATCH_SWAPPED:
            if instrumented:
                ins_op("size_compare")
            if i_size[irank] <= o_size[orank]:
                if instrumented:
                    ins_op("twist")
                tag = _VISIT_REGULAR
            else:
                tag = _VISIT_SWAPPED
        if tag == _VISIT_REGULAR:
            o = o_nodes[orank]
            if instrumented:
                ins_op("call")
                ins_op("trunc_check")
            if truncate_outer(o):
                continue
            subtree_done = False
            if irregular:
                # subtree_truncated, inlined: a mark set by an
                # enclosing swapped phase covers this whole inner
                # subtree for ``o``.
                if use_flags:
                    if instrumented:
                        ins_op("flag_check")
                    subtree_done = bool(flags[orank])
                else:
                    if instrumented:
                        ins_op("counter_check")
                    subtree_done = i_number[irank] < counters[orank]
            if subtree_done:
                pass
            elif block_t2 is not None and (
                prune := (
                    prune_cache[orank]
                    if orank in prune_cache
                    else prune_cache.setdefault(
                        orank, _as_prune_list(block_t2(o))
                    )
                )
            ) is not None:
                _emit_pruned_subtree(
                    dispatcher,
                    o_positions[orank] if by_position else o,
                    irank,
                    i_vals,
                    i_span,
                    i_number,
                    i_kids,
                    prune,
                )
            else:
                inner_stack = [irank]
                while inner_stack:
                    irank2 = inner_stack.pop()
                    i2 = i_nodes[irank2]
                    if instrumented:
                        ins_op("call")
                        ins_op("trunc_check")
                    if truncate_inner1(i2):
                        continue
                    if instrumented:
                        ins_op("visit")
                    if irregular:
                        if needs_barrier:
                            dispatcher.barrier(o)
                        if instrumented:
                            ins_op("trunc_check")
                        if truncate_inner2(o, i2):
                            continue
                    if instrumented:
                        ins_access(INNER_TREE, i2)
                        ins_access(OUTER_TREE, o)
                        ins_work(o, i2)
                    if inline:
                        work(o, i2)
                    elif by_position:
                        dispatcher.add(
                            o_positions[orank], i_positions[irank2]
                        )
                    else:
                        dispatcher.add(o, i2)
                    kids = i_kids[irank2]
                    if kids:
                        inner_stack.extend(kids)
            for child in o_kids[orank]:
                stack.append((_DISPATCH_REGULAR, child, irank, None))
        else:  # _VISIT_SWAPPED
            i = i_nodes[irank]
            if instrumented:
                ins_op("call")
                ins_op("trunc_check")
            if truncate_inner1(i):
                continue
            frame = [] if use_flags else None
            if counters is not None:
                number = i_number[irank]
                if number < 0:
                    raise ScheduleError(
                        "counter truncation requires pre-order numbering on "
                        "the inner tree; build trees via repro.spaces "
                        "(finalize_tree)"
                    )
                boundary = number + i_size[irank]
            all_truncated = True
            outer_stack = [orank]
            while outer_stack:
                orank2 = outer_stack.pop()
                o2 = o_nodes[orank2]
                if instrumented:
                    ins_op("call")
                    ins_op("trunc_check")
                if truncate_outer(o2):
                    continue
                if instrumented:
                    ins_op("visit")
                if irregular:
                    if needs_barrier:
                        dispatcher.barrier(o2)
                    if use_flags:
                        if instrumented:
                            ins_op("flag_check")
                        if flags[orank2]:
                            skipped = True
                        else:
                            if instrumented:
                                ins_op("trunc_check")
                            if truncate_inner2(o2, i):
                                if instrumented:
                                    ins_op("flag_set")
                                flags[orank2] = 1
                                frame.append(orank2)
                                skipped = True
                            else:
                                skipped = False
                    else:
                        if instrumented:
                            ins_op("counter_check")
                        if number < counters[orank2]:
                            skipped = True
                        else:
                            if instrumented:
                                ins_op("trunc_check")
                            if truncate_inner2(o2, i):
                                if instrumented:
                                    ins_op("counter_set")
                                counters[orank2] = boundary
                                skipped = True
                            else:
                                skipped = False
                else:
                    skipped = False
                if not skipped:
                    if instrumented:
                        ins_access(INNER_TREE, i)
                        ins_access(OUTER_TREE, o2)
                        ins_work(o2, i)
                    if inline:
                        work(o2, i)
                    elif by_position:
                        dispatcher.add(
                            o_positions[orank2], i_positions[irank]
                        )
                    else:
                        dispatcher.add(o2, i)
                    all_truncated = False
                kids = o_kids[orank2]
                if kids:
                    outer_stack.extend(kids)
            stack.append((_CLOSE_PHASE, -1, -1, frame))
            if not (subtree_truncation and all_truncated):
                for child in i_kids[irank]:
                    stack.append((_DISPATCH_SWAPPED, orank, child, None))
    if dispatcher is not None:
        dispatcher.flush()
