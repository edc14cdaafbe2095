"""Lowerability (TW20x) and static independence (TW21x) passes.

Two questions about a :class:`~repro.core.spec.NestedRecursionSpec`,
both answered from the typed kernel IR of
:mod:`repro.transform.lint.kernel_ir` without running the spec:

**Lowerability** — could a fused/compiled backend (the §5 codegen
contract: straight-line typed loops over SoA columns, no Python object
model) execute this spec's SoA kernel?  The pass walks the IR of
``work_batch_soa`` (plus ``truncate_inner2_batch`` when present) and
emits TW200–TW209: Python-object escapes, untyped accesses, hot-loop
allocations, non-affine rank indexing, unrecognized reductions,
data-dependent shapes.  Verdict: ``lowerable`` (clean proof) /
``needs-runtime-check`` (holes) / ``not-lowerable`` (refuted).

**Static independence** — may two outer tasks run concurrently?  The
§7.3 outer-parallel schedule is sound iff outer tasks' write sets are
disjoint.  The dynamic witness (``TW030`` via
:func:`repro.core.parallel_exec.check_outer_independence`) proves this
by *running* a probe under a :class:`FootprintRecorder`; this pass
proves it from the IR's affine footprints instead: a write is
task-local when some index dimension is affine in the outer rank with
a non-zero coefficient, or gathers through an outer payload column
verified injective on the live tree (an O(n) data precondition — not
a probe run).  Commutative reductions into scalar state are accepted
under the runtime's per-worker privatization contract.  Verdict:
``independent`` / ``needs-runtime-check`` / ``dependent``; only the
first short-circuits the warm-up probe — anything weaker falls back
to the dynamic witness, which stays the authoritative oracle.
"""

from __future__ import annotations

import enum
import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.spec import NestedRecursionSpec
from repro.transform.lint.diagnostics import Diagnostic, DiagnosticSink
from repro.transform.lint.kernel_ir import (
    AFFINE,
    CONST,
    GATHER,
    MASK,
    SLICE,
    UNKNOWN,
    KernelIR,
    TreeMemo,
    clear_ir_cache,
    spec_cache_key,
    spec_kernel_irs,
)

__all__ = [
    "IndependenceVerdict",
    "LowerReport",
    "LowerVerdict",
    "clear_cache",
    "lint_lower",
    "static_independence",
]

#: JSON payload schema (shared family with the other lint reports).
SCHEMA_VERSION = 2


class LowerVerdict(enum.Enum):
    """Eligibility of a spec for the fused/compiled backend."""

    LOWERABLE = "lowerable"
    NEEDS_RUNTIME_CHECK = "needs-runtime-check"
    NOT_LOWERABLE = "not-lowerable"

    def __str__(self) -> str:
        return self.value


class IndependenceVerdict(enum.Enum):
    """Outcome of the static outer-task disjointness proof."""

    INDEPENDENT = "independent"
    NEEDS_RUNTIME_CHECK = "needs-runtime-check"
    DEPENDENT = "dependent"

    def __str__(self) -> str:
        return self.value


#: kernels whose effects count toward the outer-task write set
_INDEPENDENCE_ROLES = ("work", "work_batch", "work_batch_soa", "truncate_inner2")

#: kernels a compiled backend would actually execute
_LOWER_ROLES = ("work_batch_soa", "truncate_inner2_batch")

_MISSING = object()


@dataclass
class LowerReport:
    """Everything one ``lint-lower`` run concluded about a spec."""

    spec_name: str
    lower: LowerVerdict
    independence: IndependenceVerdict
    lower_reason: str
    independence_reason: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: data preconditions the proofs lean on (e.g. injective columns)
    preconditions: list[str] = field(default_factory=list)
    #: per-role IR summaries (role -> KernelIR JSON)
    kernels: dict[str, dict] = field(default_factory=dict)

    @property
    def errors(self) -> list[Diagnostic]:
        from repro.transform.lint.diagnostics import Severity

        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        from repro.transform.lint.diagnostics import Severity

        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def codes(self) -> set[str]:
        """The distinct TW codes this report carries."""
        return {d.code for d in self.diagnostics}

    def render(self) -> str:
        """Human-readable multi-line report (the CLI's default output)."""
        lines = [
            diagnostic.format(self.spec_name)
            for diagnostic in sorted(
                self.diagnostics, key=lambda d: (d.line, d.col, d.code)
            )
        ]
        lines.append(
            f"{self.spec_name}: lower: {self.lower} ({self.lower_reason}); "
            f"independence: {self.independence} "
            f"({self.independence_reason})"
        )
        for precondition in self.preconditions:
            lines.append(f"{self.spec_name}: precondition: {precondition}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-ready dict with stable keys (the ``--json`` payload)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "lowerability",
            "spec": self.spec_name,
            "lower": str(self.lower),
            "independence": str(self.independence),
            "lower_reason": self.lower_reason,
            "independence_reason": self.independence_reason,
            "preconditions": list(self.preconditions),
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "kernels": self.kernels,
            "counts": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "suppressed": 0,
            },
        }

    def dumps(self) -> str:
        """Serialized JSON text of :meth:`to_json`."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# --------------------------------------------------------------------
# Lowerability pass (TW20x)
# --------------------------------------------------------------------


def _is_typed_value(value: Any) -> bool:
    return isinstance(value, (bool, numbers.Number, np.generic, np.ndarray))


def _axis_root(spec: NestedRecursionSpec, axis: str):
    return spec.outer_root if axis == "outer" else spec.inner_root


def _lower_kernel(
    spec: NestedRecursionSpec, role: str, ir: KernelIR, sink: DiagnosticSink
) -> None:
    """Emit TW20x findings for one lowering-target kernel."""

    def at(line: int):
        return type("Span", (), {"lineno": line, "col_offset": 0})()

    prefix = f"{role}: "
    if not ir.analyzable:
        sink.emit(
            "TW200",
            prefix + "kernel source could not be fetched or parsed; "
            "lowerability cannot be judged",
        )
        return
    for use in ir.object_uses:
        sink.emit(
            "TW201",
            prefix + f"{use.what} — a compiled loop has no Python "
            "object model",
            at(use.line),
            hint="stage the data into a typed SoA column before the "
            "kernel, or keep this spec on the interpreted backends",
        )
    for desc, line in ir.untyped:
        sink.emit(
            "TW202",
            prefix + f"{desc} does not resolve to a typed column, "
            "array, or scalar",
            at(line),
        )
    for axis, attr in sorted(ir.attr_reads):
        root = _axis_root(spec, axis)
        sample = getattr(root, attr, _MISSING) if root is not None else _MISSING
        if sample is _MISSING or not _is_typed_value(sample):
            sink.emit(
                "TW202",
                prefix + f"node field {axis}.{attr} is not numeric on "
                "the live tree, so it has no typed column",
                hint=f"found {type(sample).__name__}"
                if sample is not _MISSING
                else "field missing on the root node",
            )
    for alloc in ir.allocations:
        if alloc.kind == "ndarray" and not alloc.in_loop:
            # One staging buffer per dispatch lowers fine (hoisted).
            continue
        where = "inside a loop" if alloc.in_loop else "per dispatch"
        sink.emit(
            "TW203",
            prefix + f"allocates a {alloc.kind} {where}; the compiled "
            "hot loop must be allocation-free",
            at(alloc.line),
            hint="hoist the buffer out of the kernel or use a "
            "preallocated scratch column",
        )
    for access in ir.array_accesses:
        for dim in access.dims:
            if dim.kind == UNKNOWN:
                detail = dim.detail or "not affine in any rank"
                sink.emit(
                    "TW204",
                    prefix + f"index of {access.array!r} is "
                    f"{detail}; affine-in-rank or typed-gather "
                    "indexing is required",
                    at(access.line),
                )
            elif dim.kind == MASK:
                sink.emit(
                    "TW206",
                    prefix + f"{access.array!r} is indexed by a "
                    "boolean mask, so the access extent depends on "
                    "runtime values",
                    at(access.line),
                )
    for desc, line in ir.dynamic_shapes:
        sink.emit(
            "TW206",
            prefix + f"{desc} produces a data-dependent extent",
            at(line),
        )
    for write in ir.state_writes():
        if not write.typed:
            sink.emit(
                "TW202",
                prefix + f"state field {write.label} is not numeric, "
                "so it has no typed register",
                at(write.line),
            )
        if not write.reduction:
            sink.emit(
                "TW205",
                prefix + f"write to {write.label} is not a recognized "
                "commutative reduction (+=, *=, |=, &=, ^=)",
                at(write.line),
                hint="rewrite as a commutative augmented assignment "
                "or carry the value through a result column",
            )
    for helper in ir.unknown_helpers:
        sink.emit(
            "TW207",
            prefix + f"call to {helper.name} has no lowerable "
            "summary",
            at(helper.line),
        )
    has_typed_traffic = bool(ir.array_accesses) or any(
        s.reduction for s in ir.state_writes()
    )
    if has_typed_traffic:
        sink.emit(
            "TW209",
            prefix + "lowers to typed column gathers and affine rank "
            "loops; assumes SoA columns stay in sync with node "
            "payloads (repro.spaces.soa invariant)",
        )


def _lowerability_pass(
    spec: NestedRecursionSpec, irs: dict[str, KernelIR], sink: DiagnosticSink
) -> tuple[LowerVerdict, str]:
    targets = [role for role in _LOWER_ROLES if role in irs]
    if "work_batch_soa" not in irs:
        sink.emit(
            "TW208",
            "spec has no work_batch_soa kernel; the compiled backend "
            "consumes SoA blocks, so there is nothing to lower yet",
            hint="provide a work_batch_soa(o_view, i_view, o_positions, "
            "i_positions) kernel to become eligible",
        )
        return (
            LowerVerdict.NEEDS_RUNTIME_CHECK,
            "no SoA-native kernel to lower (TW208)",
        )
    for role in targets:
        _lower_kernel(spec, role, irs[role], sink)
    errors = [d for d in sink.errors if d.code.startswith("TW20")]
    warnings = [d for d in sink.warnings if d.code.startswith("TW20")]
    if errors:
        codes = ", ".join(sorted({d.code for d in errors}))
        return (
            LowerVerdict.NOT_LOWERABLE,
            f"refuted by {codes}: the kernel leaves the typed subset",
        )
    if warnings:
        codes = ", ".join(sorted({d.code for d in warnings}))
        return (
            LowerVerdict.NEEDS_RUNTIME_CHECK,
            f"holes in the proof ({codes})",
        )
    return (
        LowerVerdict.LOWERABLE,
        "every access is typed, affine-or-gather indexed, and "
        "allocation-free",
    )


# --------------------------------------------------------------------
# Static independence pass (TW21x)
# --------------------------------------------------------------------


def _column_injective(
    spec: NestedRecursionSpec, column: str
) -> tuple[Optional[bool], str]:
    """Is payload ``column`` injective over the live outer tree?

    Returns ``(True, detail)`` / ``(False, detail)`` / ``(None,
    detail)`` when the column cannot be evaluated (missing field or
    unhashable values).  This is an O(n) scan of node payloads — a
    data precondition, not a probe run of the traversal.
    """
    root = spec.outer_root
    if root is None:
        return None, "spec has no live outer tree to verify against"
    seen: set = set()
    count = 0
    for node in root.iter_preorder():
        value = getattr(node, column, _MISSING)
        if value is _MISSING or value is None:
            return None, f"outer node without a {column!r} payload"
        try:
            if value in seen:
                return False, (
                    f"outer.{column} repeats value {value!r}; two tasks "
                    "would write the same row"
                )
            seen.add(value)
        except TypeError:
            return None, f"outer.{column} values are unhashable"
        count += 1
    return True, f"outer.{column} is injective across {count} outer nodes"


def _write_disjointness(
    spec: NestedRecursionSpec,
    role: str,
    access,
    sink: DiagnosticSink,
    preconditions: list[str],
    checked_columns: dict[str, tuple[Optional[bool], str]],
) -> None:
    """Classify one array write; emit TW21x findings."""

    def at(line: int):
        return type("Span", (), {"lineno": line, "col_offset": 0})()

    prefix = f"{role}: "
    if access.array.startswith("<fresh"):
        # A buffer the kernel itself allocated: task-local by birth.
        return
    for dim in access.dims:
        if dim.kind == AFFINE and dim.axis == "outer" and dim.coeff not in (0, None):
            # c*outer_rank + k with c != 0: distinct outer positions
            # hit distinct rows — disjoint by construction.
            return
    gather_dims = [
        dim for dim in access.dims if dim.kind == GATHER and dim.axis == "outer"
    ]
    for dim in gather_dims:
        column = dim.column or ""
        if column not in checked_columns:
            checked_columns[column] = _column_injective(spec, column)
        injective, detail = checked_columns[column]
        if injective:
            sink.emit(
                "TW212",
                prefix + f"write to {access.array!r} is keyed by "
                f"outer.{column}; disjointness holds because {detail}",
                at(access.line),
            )
            note = f"outer.{column} injective ({detail})"
            if note not in preconditions:
                preconditions.append(note)
            return
        if injective is None:
            sink.emit(
                "TW211",
                prefix + f"write to {access.array!r} gathers through "
                f"outer.{column}, but {detail}",
                at(access.line),
            )
            return
        sink.emit(
            "TW210",
            prefix + f"write to {access.array!r}: {detail}",
            at(access.line),
        )
        return
    if any(dim.kind in (UNKNOWN, MASK) for dim in access.dims):
        sink.emit(
            "TW211",
            prefix + f"write to {access.array!r} through an index the "
            "IR could not classify; the footprint is not provably "
            "task-local",
            at(access.line),
        )
        return
    if access.reduction:
        sink.emit(
            "TW211",
            prefix + f"reduction into {access.array!r} is not keyed by "
            "the outer index; privatization of array reductions is "
            "not part of the static contract",
            at(access.line),
        )
        return
    keyed = ", ".join(d.describe() for d in access.dims) or "<scalar>"
    sink.emit(
        "TW210",
        prefix + f"write to {access.array!r} is keyed by [{keyed}] — "
        "no dimension distinguishes outer tasks, so two tasks "
        "overwrite the same location",
        at(access.line),
    )


def _independence_pass(
    spec: NestedRecursionSpec,
    irs: dict[str, KernelIR],
    sink: DiagnosticSink,
    preconditions: list[str],
) -> tuple[IndependenceVerdict, str]:
    def at(line: int):
        return type("Span", (), {"lineno": line, "col_offset": 0})()

    checked_columns: dict[str, tuple[Optional[bool], str]] = {}
    reductions: set[str] = set()
    for role in _INDEPENDENCE_ROLES:
        ir = irs.get(role)
        if ir is None:
            continue
        prefix = f"{role}: "
        if not ir.analyzable:
            sink.emit(
                "TW211",
                prefix + "kernel source unavailable; its write set is "
                "unknown",
            )
            continue
        for helper in ir.unknown_helpers:
            sink.emit(
                "TW214",
                prefix + f"call to {helper.name} is not summarized; "
                "the task write set may be larger than proven",
                at(helper.line),
            )
        for use in ir.object_uses:
            sink.emit(
                "TW214",
                prefix + f"{use.what}: Python-object effects are "
                "outside the affine footprint model",
                at(use.line),
            )
        for write in ir.state_writes():
            if write.reduction:
                reductions.add(write.label)
                continue
            sink.emit(
                "TW210",
                prefix + f"plain write to shared state {write.label} "
                "is visible across outer tasks (not a commutative "
                "reduction, so not privatizable)",
                at(write.line),
            )
        for node_write in ir.node_writes:
            if node_write.axis == "outer":
                # Each outer node belongs to exactly one outer task.
                continue
            sink.emit(
                "TW210",
                prefix + f"writes field {node_write.attr!r} of "
                f"{node_write.axis} nodes, which every outer task "
                "shares",
                at(node_write.line),
            )
        for desc, line in ir.untyped:
            if desc.startswith("store"):
                sink.emit(
                    "TW211",
                    prefix + f"{desc}; the write set is incomplete",
                    at(line),
                )
        for access in ir.writes():
            _write_disjointness(
                spec, role, access, sink, preconditions, checked_columns
            )
    for label in sorted(reductions):
        sink.emit(
            "TW213",
            f"commutative reduction into {label} is privatized per "
            "worker and merged deterministically by the runtime "
            "(ResultColumn contract)",
        )
    errors = [d for d in sink.errors if d.code.startswith("TW21")]
    warnings = [d for d in sink.warnings if d.code.startswith("TW21")]
    if errors:
        return (
            IndependenceVerdict.DEPENDENT,
            "a write provably overlaps across outer tasks (TW210)",
        )
    if warnings:
        codes = ", ".join(sorted({d.code for d in warnings}))
        return (
            IndependenceVerdict.NEEDS_RUNTIME_CHECK,
            f"footprint not fully resolved ({codes}); the dynamic "
            "TW030 witness remains required",
        )
    detail = "all writes are outer-keyed"
    if reductions:
        detail = (
            "all writes are outer-keyed or privatized commutative "
            "reductions"
        )
    return IndependenceVerdict.INDEPENDENT, detail


# --------------------------------------------------------------------
# Entry points + cache
# --------------------------------------------------------------------

#: cache key -> report, pinned to the live trees: an entry goes when
#: either root dies (the injectivity precondition is a property of the
#: *data*, not just the code).
_REPORT_CACHE = TreeMemo(cap=64)


def clear_cache() -> None:
    """Drop memoized lowerability reports and the shared kernel IR."""
    _REPORT_CACHE.clear()
    clear_ir_cache()


def _cache_key(spec: NestedRecursionSpec) -> tuple:
    return (spec_cache_key(spec), id(spec.outer_root), id(spec.inner_root))


def lint_lower(spec: NestedRecursionSpec, use_cache: bool = True) -> LowerReport:
    """Run both TW2xx passes over one spec and fold the verdicts.

    Reports are cached on the kernels' code objects *and* the identity
    of the live trees — the independence proof may rest on a data
    precondition (injective payload column), so a new tree means a new
    proof even under identical kernel code.
    """
    key = _cache_key(spec) if use_cache else None
    roots = (spec.outer_root, spec.inner_root)
    cached = _REPORT_CACHE.get(key, roots) if key is not None else None
    if cached is not None:
        return cached
    roles = set(_INDEPENDENCE_ROLES) | set(_LOWER_ROLES)
    shared = spec_kernel_irs(spec, use_cache=use_cache)
    irs = {role: shared[role] for role in sorted(roles) if role in shared}
    sink = DiagnosticSink()
    preconditions: list[str] = []
    lower_verdict, lower_reason = _lowerability_pass(spec, irs, sink)
    independence_verdict, independence_reason = _independence_pass(
        spec, irs, sink, preconditions
    )
    report = LowerReport(
        spec_name=spec.name or "<spec>",
        lower=lower_verdict,
        independence=independence_verdict,
        lower_reason=lower_reason,
        independence_reason=independence_reason,
        diagnostics=list(sink.diagnostics),
        preconditions=preconditions,
        kernels={role: ir.to_json() for role, ir in irs.items()},
    )
    if key is not None:
        _REPORT_CACHE.put(key, roots, report)
    return report


def static_independence(
    spec: NestedRecursionSpec, use_cache: bool = True
) -> tuple[str, str]:
    """The independence verdict alone, for the parallel runtime.

    Returns ``(verdict_value, reason)`` where the verdict value is one
    of ``"independent"`` / ``"needs-runtime-check"`` / ``"dependent"``.
    :func:`repro.core.parallel_exec.check_outer_independence` treats
    only ``"independent"`` as a probe-skipping proof.
    """
    report = lint_lower(spec, use_cache=use_cache)
    return str(report.independence), report.independence_reason
