"""The nested recursion template (Figure 2) as a declarative spec.

A :class:`NestedRecursionSpec` captures everything the paper's template
parameterizes:

* the two trees (really: recursive index spaces) being traversed;
* ``truncateOuter?`` — bounds the outer recursion on its own index;
* ``truncateInner1?`` — bounds the inner recursion on its own index;
* ``truncateInner2?`` — the *irregular* truncation of Section 4,
  bounding the inner recursion on **both** indices (``None`` marks the
  regular case, the paper's "no-op" assumption in Sections 2-3);
* ``work`` — the loop body, called once per executed iteration.

The template's truncation conditions include the implicit ``null``
checks of the paper's listings; here the equivalent structural bound is
"a node has no children", so the default truncation predicates are
constant ``False`` and recursion stops at leaves.  Domain-specific
predicates (e.g. dual-tree ``Score`` pruning) are layered on top.

The executors in :mod:`repro.core.executors`,
:mod:`repro.core.interchange` and :mod:`repro.core.twisting` consume a
spec and realize the original, interchanged, and twisted schedules.
Crucially (Section 2.1's terminology), a spec names the *trees* — whose
identity is absolute — while the executors decide which tree each
*recursion* traverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.errors import SpecError
from repro.spaces.node import IndexNode, validate_index_node

#: Absolute tree identities, used to tag data accesses regardless of
#: which recursion is traversing the tree in a transformed schedule.
OUTER_TREE = "outer"
INNER_TREE = "inner"

TruncatePredicate = Callable[[IndexNode], bool]
Truncate2Predicate = Callable[[IndexNode, IndexNode], bool]
WorkFunction = Callable[[IndexNode, IndexNode], Any]
BatchWorkFunction = Callable[[Sequence[IndexNode], Sequence[IndexNode]], Any]


def _never(_node: IndexNode) -> bool:
    """Default truncation predicate: rely on structural leaf bounds."""
    return False


@dataclass
class NestedRecursionSpec:
    """An instance of the Figure 2 nested recursion template.

    Parameters
    ----------
    outer_root, inner_root:
        Roots of the outer and inner trees.  The same root may be used
        for both (self-joins are allowed; the locality analysis of
        Section 3.2 explicitly covers "recursions [that] traverse trees
        (that could be the same tree)").
    work:
        The loop body.  May be ``None`` for pure schedule studies where
        only the visit order matters.
    truncate_outer, truncate_inner1:
        Single-index truncation predicates.  Defaults never truncate
        (recursion stops at leaves structurally).
    truncate_inner2:
        Two-index truncation, or ``None`` when truncation is regular.
        When present, the transformed schedules automatically engage
        the Section 4 flag/counter machinery.
    work_batch:
        Optional vectorized form of ``work``: receives two parallel
        sequences of nodes and must be semantically equivalent to
        calling ``work(o, i)`` on each pair in order.  The SoA
        executors' node-block mode (:mod:`repro.core.batched`)
        dispatches accumulated leaf-level blocks through it; the
        recursive executors ignore it.
    work_batch_soa:
        Optional SoA-native form of ``work``: called as
        ``work_batch_soa(outer_view, inner_view, o_positions,
        i_positions)`` with the two packed
        :class:`~repro.spaces.soa.SoATree` views and two parallel lists
        of layout positions, it must be semantically equivalent to
        calling ``work`` on each positioned pair in order.  Only the
        SoA executors (:mod:`repro.core.soa_exec`) consume it, and only
        when ``truncation_observes_work`` is unset — it lets them
        dispatch integer position blocks (one fancy-index gather per
        payload column) instead of node objects.
    truncation_observes_work:
        ``True`` when ``truncate_inner2`` reads state that ``work``
        writes (the stateful dual-tree bounds of NN/KNN).  The SoA
        executors then run ``work`` inline, or flush pending work for
        an outer node before evaluating its truncation, so deferral
        never changes a truncation decision.  Irrelevant for the
        recursive executors, which never defer.
    truncate_inner2_batch:
        Optional block form of ``truncate_inner2`` for *stateless*
        truncation: called with one outer node, it returns either a
        scalar bool (the decision is uniform over every inner node), a
        boolean array indexed by inner-node pre-order ``number``, or
        ``None`` (block evaluation unavailable for this node — fall
        back to per-pair calls).  Every produced decision must equal
        ``truncate_inner2(o, i)`` exactly.  Only the SoA executors'
        uninstrumented fast paths consume it, and only when
        ``truncation_observes_work`` is ``False`` (a stateful
        truncation cannot legally be pre-evaluated).
    isolated_truncation:
        ``True`` to keep Section 4 flag/counter state in per-run
        policy-local storage instead of on the (possibly shared) tree
        nodes.  Task-parallel execution (:mod:`repro.core.parallel`)
        sets this on each task's restricted spec so concurrently
        simulated tasks cannot leak truncation state to one another.
    outer_launches_work:
        Optional predicate telling the task scheduler which outer
        positions can launch a non-trivial inner traversal (e.g. only
        query *leaves* in a dual-tree algorithm).  ``None`` means every
        position may; used only for cost estimation, never for
        execution.
    parallel_plan:
        Optional :class:`~repro.core.parallel_exec.ParallelPlan`
        describing how the real multi-worker runtime rebuilds this
        spec inside workers (shared input arrays, a module-level
        worker factory, result columns, and the parent-side
        write-back).  ``None`` — the default — means the spec can only
        run serially or on the simulated task runtime; the
        ``parallel`` backend refuses it.  Typed loosely to keep this
        module free of runtime imports.
    name:
        A label for reports.
    """

    outer_root: IndexNode
    inner_root: IndexNode
    work: Optional[WorkFunction] = None
    truncate_outer: TruncatePredicate = _never
    truncate_inner1: TruncatePredicate = _never
    truncate_inner2: Optional[Truncate2Predicate] = None
    truncate_inner2_batch: Optional[Callable[[IndexNode], Any]] = None
    work_batch: Optional[BatchWorkFunction] = None
    work_batch_soa: Optional[Callable[..., Any]] = None
    truncation_observes_work: bool = False
    isolated_truncation: bool = False
    outer_launches_work: Optional[TruncatePredicate] = None
    parallel_plan: Optional[Any] = None
    name: str = "nested-recursion"

    def __post_init__(self) -> None:
        validate_index_node(self.outer_root)
        validate_index_node(self.inner_root)
        for predicate_name in ("truncate_outer", "truncate_inner1"):
            if not callable(getattr(self, predicate_name)):
                raise SpecError(f"{predicate_name} must be callable")
        if self.truncate_inner2 is not None and not callable(self.truncate_inner2):
            raise SpecError("truncate_inner2 must be callable or None")
        if self.truncate_inner2_batch is not None:
            if not callable(self.truncate_inner2_batch):
                raise SpecError("truncate_inner2_batch must be callable or None")
            if self.truncate_inner2 is None:
                raise SpecError(
                    "truncate_inner2_batch requires truncate_inner2 (it is "
                    "an accelerated form of it, not a replacement)"
                )
        if self.work is not None and not callable(self.work):
            raise SpecError("work must be callable or None")
        if self.work_batch is not None and not callable(self.work_batch):
            raise SpecError("work_batch must be callable or None")
        if self.work_batch_soa is not None:
            if not callable(self.work_batch_soa):
                raise SpecError("work_batch_soa must be callable or None")
            if self.work is None and self.work_batch is None:
                raise SpecError(
                    "work_batch_soa is an accelerated form of work — provide "
                    "work (or work_batch) so non-SoA backends can run the spec"
                )
        if self.outer_launches_work is not None and not callable(
            self.outer_launches_work
        ):
            raise SpecError("outer_launches_work must be callable or None")

    @property
    def is_irregular(self) -> bool:
        """True when the iteration space can be non-rectangular.

        Mirrors the prototype tool's analysis step (Section 5): "it
        determines whether any portion of the inner recursion's
        truncation condition is dependent on the outer recursion".
        """
        return self.truncate_inner2 is not None

    def reset_truncation_state(self) -> None:
        """Clear flag/counter scratch state on both trees.

        Executors call this before every run so that repeated runs on
        the same spec are independent.  Specs with
        ``isolated_truncation`` keep their state in policy-local
        storage, so there is nothing on the (shared) trees to reset —
        touching them here would clobber sibling tasks running
        concurrently over the same trees.
        """
        if self.isolated_truncation:
            return
        self.outer_root.reset_truncation_state()
        if self.inner_root is not self.outer_root:
            self.inner_root.reset_truncation_state()

    def interchanged(self) -> "NestedRecursionSpec":
        """The spec a *statically* interchanged program would have.

        Recursion interchange swaps which tree each recursion
        traverses; a statically interchanged program is simply the
        template instantiated with the trees (and their single-index
        truncations) exchanged.  Only valid for regular truncation —
        with ``truncateInner2?`` present the interchange must go
        through the flag machinery (Section 4), i.e. through
        :func:`repro.core.interchange.run_interchanged`, not through a
        spec-level swap.
        """
        if self.is_irregular:
            raise SpecError(
                "a spec with truncate_inner2 cannot be interchanged by "
                "swapping trees; use run_interchanged, which applies the "
                "Section 4 truncation-flag machinery"
            )
        swapped_work = None
        if self.work is not None:
            original_work = self.work
            swapped_work = lambda i, o: original_work(o, i)  # noqa: E731
        swapped_batch = None
        if self.work_batch is not None:
            original_batch = self.work_batch
            swapped_batch = lambda is_, os: original_batch(os, is_)  # noqa: E731
        swapped_soa = None
        if self.work_batch_soa is not None:
            original_soa = self.work_batch_soa
            # The swapped spec's outer view packs the original inner
            # tree, so the roles (and position lists) swap back.
            swapped_soa = (  # noqa: E731
                lambda o_view, i_view, o_positions, i_positions: original_soa(
                    i_view, o_view, i_positions, o_positions
                )
            )
        return NestedRecursionSpec(
            outer_root=self.inner_root,
            inner_root=self.outer_root,
            work=swapped_work,
            truncate_outer=self.truncate_inner1,
            truncate_inner1=self.truncate_outer,
            truncate_inner2=None,
            work_batch=swapped_batch,
            work_batch_soa=swapped_soa,
            name=f"{self.name}-interchanged",
        )
