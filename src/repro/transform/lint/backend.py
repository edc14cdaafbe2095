"""Backend-conformance analysis: batch/SoA kernels vs scalar semantics.

PR 1's linter certifies the §3.3 *schedule* proofs for annotated
source; this module guards the other trust boundary the executors
added since: a spec's vectorized kernels.  ``work_batch``,
``work_batch_soa`` and ``truncate_inner2_batch`` promise to be
semantically equivalent to their scalar counterparts ("as if ``work``
ran on each pair in order"), and both the SoA executors' block
dispatch and ``backend="auto"`` lean on that promise without checking
it.

:func:`lint_spec` checks what can be checked statically, on the live
function objects of a :class:`~repro.core.spec.NestedRecursionSpec`:

* **write/read sets** — the state locations each kernel writes and the
  node fields it reads come from the shared kernel IR
  (:mod:`repro.transform.lint.kernel_ir`, keyed by live-object
  identity, so ``acc`` in ``work`` and ``self`` in a bound method of
  the same object compare equal) and are compared across scalar/batch
  forms (TW101/TW102);
* **purity & order-independence** — no cross-dispatch state capture
  (TW103), no mutation or retention of the dispatcher's block
  arguments (TW104), guard read-set consistency (TW105/TW106), and
  order-sensitivity of read-modify-write state updates (TW108: a
  vectorized update of state the kernel also reads is only provably
  order-equivalent when it is a commutative reduction or a literal
  per-pair replay loop);
* **a verdict per backend** folded into one spec classification
  (the ``batched`` verdict judges the ``work_batch`` node-block
  dispatch, :class:`repro.core.batched.BatchDispatcher`, which the SoA
  executors' ``nodes`` mode and parallel single-node-view tasks run):
  ``batch-safe`` / ``soa-safe`` (proofs went through), explicit
  ``needs-dynamic-check`` (holes remain — discharge them with the
  ``sanitize`` backend, :mod:`repro.core.sanitize`), or ``unsafe``
  (a kernel refutes equivalence; ``backend="auto"`` refuses it).

Helpers that stage per-tree caches (``repro.dualtree.batch``) mark
themselves ``__conformance_staged__ = True``: calls to them are
treated as pure reads of pre-staged copies of tree data and surface as
TW109 *info* findings rather than unknown-helper warnings.  Plain
read-only helpers may set ``__conformance_pure__ = True``.

This is the spec-level descendant of the paper's §5 prototype
"sanity checking tool": where the paper checked the template shape and
trusted the programmer for everything else, this pass checks the
kernels themselves and says exactly what it could not prove.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.core.spec import NestedRecursionSpec
from repro.transform.lint.diagnostics import DiagnosticSink, Severity
from repro.transform.lint.kernel_ir import (
    CELL_ROOT,
    NODE_ROOT,
    OPAQUE_ROOT,
    KernelIR,
    clear_ir_cache,
    spec_cache_key,
    spec_kernel_irs,
)

#: Schema version shared with :class:`~repro.transform.lint.report.LintReport`.
SCHEMA_VERSION = 2

#: Kernel roles whose findings gate a *vectorized* backend (TW103/104/
#: 110 only fire here; the scalar kernel is the reference semantics).
BATCH_ROLES = frozenset(
    {"work_batch", "work_batch_soa", "truncate_inner2_batch"}
)


class SpecVerdict(enum.Enum):
    """Overall backend-conformance classification of one spec."""

    BATCH_SAFE = "batch-safe"
    SOA_SAFE = "soa-safe"
    NEEDS_DYNAMIC_CHECK = "needs-dynamic-check"
    UNSAFE = "unsafe"

    def __str__(self) -> str:
        return self.value


class _Span:
    """Line carrier for diagnostics pinned into the kernel's file."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int) -> None:
        self.lineno = lineno
        self.col_offset = 0


def _describe(key: tuple, labels: dict) -> str:
    """Display label of a ``(root, field)`` location."""
    root, field_name = key
    if root == NODE_ROOT:
        return "<traversal node>"
    if root == CELL_ROOT:
        return f"<captured {field_name}>"
    if root == OPAQUE_ROOT:
        return f"<unresolved {field_name}>"
    label = labels.get(root, "<state>")
    return f"{label}.{field_name}" if field_name else label


def _conformance_analyzable(ir: KernelIR) -> bool:
    return ir.analyzable and not ir.conformance.sourceless


def _kernel_findings(ir: KernelIR, sink: DiagnosticSink) -> None:
    """Per-kernel findings: TW100 always, TW103/104/109/110 for batch roles."""
    if not ir.analyzable:
        sink.emit(
            "TW100",
            f"{ir.role}: source of {ir.name!r} is unavailable or not a "
            "plain function definition; conformance cannot be analyzed",
        )
    for helper in ir.conformance.sourceless:
        sink.emit(
            "TW100",
            f"{ir.role}: source of helper {helper!r} is unavailable; "
            "conformance cannot be analyzed",
        )
    if ir.role not in BATCH_ROLES:
        return
    facts = ir.conformance
    for name, line in facts.rebinds:
        sink.emit(
            "TW103",
            f"{ir.role}: kernel rebinds captured variable {name!r}, "
            f"carrying state from one dispatch to the next (in {ir.name})",
            _Span(line),
            hint="batch kernels must be a pure function of the block plus "
            "declared spec state",
        )
    for what, line in facts.block_escapes:
        sink.emit(
            "TW104",
            f"{ir.role}: kernel {what}; flushed blocks are cleared in "
            f"place by the dispatcher (in {ir.name})",
            _Span(line),
        )
    for helper in facts.opaque_calls:
        sink.emit(
            "TW110",
            f"{ir.role}: call to unanalyzable helper {helper.name!r}; its "
            f"effects are not part of the conformance proof (in {ir.name})",
            _Span(helper.line),
            hint="mark read-only helpers __conformance_pure__ = True (or "
            "__conformance_staged__ for staging caches)",
        )
    if facts.staged_helpers:
        sink.emit(
            "TW109",
            f"{ir.role} reads staged copies via "
            f"{sorted(facts.staged_helpers)}; conformance assumes the "
            "staging mirrors live tree data",
        )


# ---------------------------------------------------------------------
# Spec-level comparison and verdicts
# ---------------------------------------------------------------------


@dataclass
class SpecConformanceReport:
    """Everything :func:`lint_spec` concluded about one spec."""

    spec_name: str
    verdict: SpecVerdict
    #: per-backend verdict strings: safe / needs-dynamic-check / unsafe
    backends: dict = field(default_factory=dict)
    #: why each backend got its verdict (one line per backend)
    reasons: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    #: the compared kernels' IR, in analysis order
    kernels: list = field(default_factory=list)
    #: effect root -> display label, merged across ``kernels``
    labels: dict = field(default_factory=dict)

    @property
    def errors(self) -> list:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def codes(self) -> set:
        """The distinct diagnostic codes present in this report."""
        return {d.code for d in self.diagnostics}

    def kernel_writes(self, ir: KernelIR) -> list:
        """Display labels of the state locations ``ir`` writes."""
        return sorted(
            {_describe(key, self.labels) for key in ir.conformance.write_keys()}
        )

    def render(self) -> str:
        """Human-readable report: findings, per-backend verdicts, summary."""
        lines = [
            diagnostic.format(self.spec_name)
            for diagnostic in sorted(
                self.diagnostics, key=lambda d: (d.code, d.line)
            )
        ]
        for backend in sorted(self.backends):
            lines.append(
                f"{self.spec_name}: backend {backend}: "
                f"{self.backends[backend]} ({self.reasons[backend]})"
            )
        lines.append(
            f"{self.spec_name}: verdict: {self.verdict} "
            f"({len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s))"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON payload, same schema family as ``LintReport.to_json``."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "spec-conformance",
            "spec": self.spec_name,
            "verdict": str(self.verdict),
            "backends": dict(self.backends),
            "reasons": dict(self.reasons),
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "suppressed": [],
            "kernels": [
                {
                    "role": ir.role,
                    "name": ir.name,
                    "analyzable": _conformance_analyzable(ir),
                    "writes": self.kernel_writes(ir),
                    "node_reads": sorted(ir.conformance.node_reads),
                    "staged_helpers": sorted(ir.conformance.staged_helpers),
                }
                for ir in self.kernels
            ],
            "counts": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "suppressed": 0,
            },
        }

    def dumps(self) -> str:
        """The JSON payload as an indented, key-sorted string."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _compare_write_sets(
    scalar: KernelIR, batch: KernelIR, sink: DiagnosticSink, labels: dict
) -> None:
    """TW101: the batch kernel must write exactly the scalar locations."""
    scalar_writes = scalar.conformance.write_keys()
    batch_writes = batch.conformance.write_keys()
    for key in sorted(batch_writes - scalar_writes, key=str):
        sink.emit(
            "TW101",
            f"{batch.role} writes {_describe(key, labels)!r} which the "
            f"scalar work kernel never writes",
            hint="a vectorized kernel must touch exactly the state its "
            "scalar counterpart touches",
        )
    for key in sorted(scalar_writes - batch_writes, key=str):
        sink.emit(
            "TW101",
            f"{batch.role} never writes {_describe(key, labels)!r} "
            f"which the scalar work kernel writes on every pair",
        )


def _extra_reads(reference: KernelIR, kernel: KernelIR, labels: dict) -> tuple:
    """State locations and node fields ``kernel`` reads beyond ``reference``."""
    extra_state = (
        kernel.conformance.state_reads() - reference.conformance.state_reads()
    )
    extra_nodes = kernel.conformance.node_reads - reference.conformance.node_reads
    return sorted(_describe(key, labels) for key in extra_state), sorted(extra_nodes)


def _compare_read_sets(
    scalar: KernelIR, batch: KernelIR, sink: DiagnosticSink, labels: dict
) -> None:
    """TW102: extra reads mean the batch result may depend on more."""
    extra_state, extra_nodes = _extra_reads(scalar, batch, labels)
    if extra_nodes:
        sink.emit(
            "TW102",
            f"{batch.role} reads node field(s) {extra_nodes} that the "
            "scalar kernel never touches; equivalence depends on those "
            "fields matching the scalar derivation",
        )
    if extra_state:
        sink.emit(
            "TW102",
            f"{batch.role} reads state {extra_state} that the scalar "
            "kernel never reads",
        )


def _check_order_sensitivity(
    batch: KernelIR, sink: DiagnosticSink, labels: dict
) -> None:
    """TW108: vectorized read-modify-write without an in-order replay."""
    reads = batch.conformance.state_reads()
    for key in sorted(batch.conformance.write_keys() & reads, key=str):
        writes = [
            e for e in batch.conformance.effects if e.is_write and e.key == key
        ]
        if all(e.reduction for e in writes):
            continue  # commutative reduction: order-independent
        if all(e.in_loop for e in writes):
            continue  # literal per-pair replay: order-faithful
        sink.emit(
            "TW108",
            f"{batch.role} reads and overwrites {_describe(key, labels)!r} "
            "with a vectorized update; equivalence to the scalar kernel's "
            "in-order updates is not statically provable",
            hint="discharge at runtime with backend='sanitize'",
        )


def _check_guards(
    spec: NestedRecursionSpec,
    scalar_guard: Optional[KernelIR],
    block_guard: Optional[KernelIR],
    sink: DiagnosticSink,
    labels: dict,
) -> None:
    if spec.truncate_inner2_batch is None:
        return
    if spec.truncation_observes_work:
        sink.emit(
            "TW106",
            "spec provides truncate_inner2_batch while "
            "truncation_observes_work is set: pre-evaluating a "
            "work-observing guard changes its decisions",
            hint="drop the block guard or make the rules stateless",
        )
    if block_guard is None:
        return
    written = block_guard.conformance.write_keys()
    if written:
        sink.emit(
            "TW106",
            f"truncate_inner2_batch writes "
            f"{sorted(_describe(key, labels) for key in written)}; a block "
            "guard is pre-evaluated for whole subtrees and must be pure",
        )
    if scalar_guard is None:
        return
    extra_state, extra_nodes = _extra_reads(scalar_guard, block_guard, labels)
    if extra_state or extra_nodes:
        sink.emit(
            "TW105",
            f"truncate_inner2_batch reads {extra_state + extra_nodes} that "
            "the scalar truncate_inner2 never consults; block decisions "
            "may diverge from scalar ones",
        )


def _backend_verdict(errors: list, warnings: list, safe_reason: str) -> tuple:
    if errors:
        codes = "; ".join(sorted({d.code for d in errors}))
        return "unsafe", codes + " refute scalar equivalence"
    if warnings:
        codes = "; ".join(sorted({d.code for d in warnings}))
        return "needs-dynamic-check", codes + " leave holes in the proof"
    return "safe", safe_reason


#: Conformance verdict cache, keyed on kernel code objects + flags.
_REPORT_CACHE: dict = {}


def clear_cache() -> None:
    """Drop memoized conformance reports and the shared kernel IR."""
    _REPORT_CACHE.clear()
    clear_ir_cache()


def lint_spec(spec: NestedRecursionSpec) -> SpecConformanceReport:
    """Statically check a spec's vectorized kernels against ``work``.

    Returns a :class:`SpecConformanceReport` with per-backend verdicts
    (``recursive`` is always safe — it *is* the reference semantics)
    and one overall :class:`SpecVerdict`.  Reports are cached on the
    kernels' code objects, so re-making a spec from the same factory
    (fresh closures, same code) reuses the verdict.
    """
    key = spec_cache_key(spec)
    cached = _REPORT_CACHE.get(key)
    if cached is not None and cached.spec_name == (spec.name or "<spec>"):
        return cached
    irs = spec_kernel_irs(spec)
    labels: dict = {}
    for ir in irs.values():
        for root, label in ir.conformance.labels.items():
            labels.setdefault(root, label)

    sink = DiagnosticSink()
    batch_sink = DiagnosticSink()
    soa_sink = DiagnosticSink()
    guard_sink = DiagnosticSink()

    scalar = irs.get("work")
    batch = irs.get("work_batch")
    soa = irs.get("work_batch_soa")
    block_guard = irs.get("truncate_inner2_batch")
    scalar_guard = irs.get("truncate_inner2") if block_guard else None
    for ir, ir_sink in (
        (scalar, sink),
        (batch, batch_sink),
        (soa, soa_sink),
        (block_guard, guard_sink),
    ):
        if ir is not None:
            _kernel_findings(ir, ir_sink)

    for vector, vector_sink in ((batch, batch_sink), (soa, soa_sink)):
        if vector is None:
            continue
        if scalar is None:
            vector_sink.emit(
                "TW100",
                f"{vector.role}: spec has no scalar work kernel to "
                "compare against",
            )
        elif _conformance_analyzable(scalar) and _conformance_analyzable(vector):
            _compare_write_sets(scalar, vector, vector_sink, labels)
            _compare_read_sets(scalar, vector, vector_sink, labels)
            _check_order_sensitivity(vector, vector_sink, labels)
        else:
            vector_sink.emit(
                "TW100",
                f"{vector.role}: scalar reference or kernel source "
                "is unanalyzable; conformance cannot be proven",
            )
    _check_guards(spec, scalar_guard, block_guard, guard_sink, labels)
    if spec.truncation_observes_work and (batch is not None or soa is not None):
        batch_sink.emit(
            "TW107",
            "truncation observes work: deferred dispatch is only "
            "equivalent under the executors' per-outer barrier flushes",
        )

    # Per-backend verdicts.  ``soa`` depends on its dispatch mode: the
    # inline mode runs the scalar kernel itself, so there is nothing to
    # prove; the nodes mode reuses the batched dispatcher wholesale.
    from repro.core.soa_exec import dispatch_mode

    batched_errors = batch_sink.errors + guard_sink.errors
    batched_warnings = batch_sink.warnings + guard_sink.warnings
    if batch is None and block_guard is None:
        batched = (
            "safe",
            "no vectorized kernels: scalar work dispatched per pair",
        )
    else:
        batched = _backend_verdict(
            batched_errors,
            batched_warnings,
            "write/read sets match and updates are order-independent",
        )

    mode = dispatch_mode(spec)
    if mode == "inline":
        soa_verdict = _backend_verdict(
            guard_sink.errors,
            guard_sink.warnings,
            "inline mode: the scalar work kernel runs at schedule position",
        )
    elif mode == "positions":
        soa_verdict = _backend_verdict(
            soa_sink.errors + guard_sink.errors,
            soa_sink.warnings + guard_sink.warnings,
            "work_batch_soa conforms to the scalar kernel",
        )
    else:
        soa_verdict = _backend_verdict(
            batched_errors,
            batched_warnings,
            "nodes mode reuses the (conforming) batched dispatcher",
        )

    backends = {"recursive": "safe", "batched": batched[0], "soa": soa_verdict[0]}
    reasons = {
        "recursive": "reference semantics",
        "batched": batched[1],
        "soa": soa_verdict[1],
    }

    for sub_sink in (batch_sink, soa_sink, guard_sink):
        sink.extend(sub_sink)

    if "unsafe" in backends.values():
        verdict = SpecVerdict.UNSAFE
    elif "needs-dynamic-check" in backends.values():
        verdict = SpecVerdict.NEEDS_DYNAMIC_CHECK
    elif soa is not None:
        verdict = SpecVerdict.SOA_SAFE
    else:
        verdict = SpecVerdict.BATCH_SAFE

    report = SpecConformanceReport(
        spec_name=spec.name or "<spec>",
        verdict=verdict,
        backends=backends,
        reasons=reasons,
        diagnostics=sink.diagnostics,
        kernels=[
            ir
            for ir in (scalar, batch, soa, scalar_guard, block_guard)
            if ir is not None
        ],
        labels=labels,
    )
    _REPORT_CACHE[key] = report
    return report
