"""Structured diagnostics for the schedule-safety analyzer.

Every finding the linter can produce is registered here under a stable
``TW0xx`` code (catalogued for humans in ``docs/DIAGNOSTICS.md``), with
a severity and an indication of which verdict dimension it affects:

``schedule``
    the sequential §3.3 schedule-equivalence argument (interchange /
    twisting soundness);
``parallel``
    only the §7.3 task-parallel execution (a finding here does not
    demote the sequential verdict);
``input``
    the input could not be brought to the Figure 2 template at all;
``backend``
    the ``TW1xx`` family: backend *conformance* of a spec's vectorized
    kernels (``work_batch`` / ``work_batch_soa`` /
    ``truncate_inner2_batch``) with their scalar counterparts.  These
    findings never touch the §3.3 schedule verdict — they decide
    whether the SoA executors' block dispatch may stand in for the
    recursive one (see :mod:`repro.transform.lint.backend`);
``lower``
    the ``TW20x`` family: *lowerability* of a spec's kernels to the
    typed kernel IR (:mod:`repro.transform.lint.kernel_ir`) — the
    eligibility gate for the fused/compiled backend (see
    :mod:`repro.transform.lint.lower`);
``independence``
    the ``TW21x`` family: *static outer-task independence* proven from
    the IR's affine footprints — the static counterpart of the dynamic
    TW030 witness probe, consumed by
    :func:`repro.core.parallel_exec.check_outer_independence`;
``locality``
    the ``TW30x`` family: static *profitability* of the locality
    transformations — footprint/reuse inference against a
    :class:`~repro.memory.cachemodel.CacheModel`, predicting whether
    interchange / twisting / layout changes pay off (see
    :mod:`repro.transform.lint.locality`).  Unlike every other family,
    these codes never gate legality: they are a cost prior cited by
    :func:`repro.core.backend_select.choose_backend` as evidence.

Severities follow the usual compiler convention: ``error`` findings
refute the safety proof (verdict *unsafe*), ``warning`` findings leave
a hole in it (verdict *needs-dynamic-check*), ``info`` findings record
assumptions the proof leans on without weakening it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class Severity(enum.Enum):
    """How strongly a finding bears on the safety verdict."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CodeInfo:
    """Catalog entry for one stable diagnostic code."""

    #: the stable code, e.g. ``"TW010"``
    code: str
    #: one-line human title (also the docs heading)
    title: str
    #: default severity of findings with this code
    severity: Severity
    #: which verdict dimension the code affects (see module docstring)
    affects: str


#: Raw registration order, duplicates and all.  ``CATALOG`` is derived
#: from this; keeping the list visible lets the registry test assert
#: that no code was silently re-registered (a dict comprehension alone
#: would dedupe the collision away).
_REGISTRY: list[CodeInfo] = [
    # --- input / template (TW00x) --------------------------------
        CodeInfo(
            "TW001",
            "input source does not parse",
            Severity.ERROR,
            "input",
        ),
        CodeInfo(
            "TW002",
            "annotated pair violates the Figure 2 template",
            Severity.ERROR,
            "input",
        ),
        CodeInfo(
            "TW003",
            "truncation disjunct depends only on the outer index",
            Severity.ERROR,
            "input",
        ),
        # --- work footprint (TW01x) ----------------------------------
        CodeInfo(
            "TW010",
            "write keyed by the inner index (outer recursion not parallel)",
            Severity.ERROR,
            "schedule",
        ),
        CodeInfo(
            "TW011",
            "write to shared state keyed by neither index",
            Severity.ERROR,
            "schedule",
        ),
        CodeInfo(
            "TW012",
            "write through an unresolvable target (footprint incomplete)",
            Severity.WARNING,
            "schedule",
        ),
        CodeInfo(
            "TW013",
            "call to unknown helper (footprint incomplete)",
            Severity.WARNING,
            "schedule",
        ),
        CodeInfo(
            "TW015",
            "multi-hop write assumes per-node ownership of the path",
            Severity.INFO,
            "schedule",
        ),
        # --- purity (TW02x) ------------------------------------------
        CodeInfo(
            "TW020",
            "side-effecting truncation guard",
            Severity.ERROR,
            "schedule",
        ),
        CodeInfo(
            "TW021",
            "call to unknown helper in guard or child expression "
            "(purity unknown)",
            Severity.WARNING,
            "schedule",
        ),
        CodeInfo(
            "TW022",
            "side-effecting child expression",
            Severity.ERROR,
            "schedule",
        ),
        CodeInfo(
            "TW023",
            "adaptive truncation: guard reads state the work writes",
            Severity.WARNING,
            "schedule",
        ),
        CodeInfo(
            "TW024",
            "work mutates traversal structure (size/children/index "
            "binding)",
            Severity.ERROR,
            "schedule",
        ),
        # --- task parallelism (TW03x) --------------------------------
        CodeInfo(
            "TW030",
            "cross-task shared-state race under the task-parallel "
            "executor",
            Severity.WARNING,
            "parallel",
        ),
        # --- backend conformance (TW10x) -----------------------------
        CodeInfo(
            "TW100",
            "kernel source unavailable (conformance not analyzable)",
            Severity.WARNING,
            "backend",
        ),
        CodeInfo(
            "TW101",
            "batch kernel write set differs from the scalar kernel",
            Severity.ERROR,
            "backend",
        ),
        CodeInfo(
            "TW102",
            "batch kernel reads node fields the scalar kernel never "
            "touches",
            Severity.WARNING,
            "backend",
        ),
        CodeInfo(
            "TW103",
            "batch kernel captures mutable state across dispatches",
            Severity.ERROR,
            "backend",
        ),
        CodeInfo(
            "TW104",
            "batch kernel mutates or retains its input block "
            "(aliasing hazard)",
            Severity.ERROR,
            "backend",
        ),
        CodeInfo(
            "TW105",
            "block truncation guard reads state its scalar "
            "counterpart ignores",
            Severity.WARNING,
            "backend",
        ),
        CodeInfo(
            "TW106",
            "block truncation guard on a spec whose truncation "
            "observes work",
            Severity.ERROR,
            "backend",
        ),
        CodeInfo(
            "TW107",
            "kernel relies on per-outer barrier flushes for "
            "correctness",
            Severity.INFO,
            "backend",
        ),
        CodeInfo(
            "TW108",
            "order-sensitive state update vectorized without in-order "
            "replay",
            Severity.WARNING,
            "backend",
        ),
        CodeInfo(
            "TW109",
            "batch kernel reads staged auxiliary data the scalar "
            "kernel derives per node",
            Severity.INFO,
            "backend",
        ),
        CodeInfo(
            "TW110",
            "call to unknown helper inside a batch kernel "
            "(conformance incomplete)",
            Severity.WARNING,
            "backend",
        ),
        # --- lowerability (TW20x) ------------------------------------
        CodeInfo(
            "TW200",
            "kernel source unavailable (lowerability not analyzable)",
            Severity.WARNING,
            "lower",
        ),
        CodeInfo(
            "TW201",
            "Python-object use in the lowered hot loop",
            Severity.ERROR,
            "lower",
        ),
        CodeInfo(
            "TW202",
            "untyped access (value does not resolve to a typed column, "
            "array, or scalar)",
            Severity.WARNING,
            "lower",
        ),
        CodeInfo(
            "TW203",
            "allocation inside the kernel hot loop",
            Severity.WARNING,
            "lower",
        ),
        CodeInfo(
            "TW204",
            "non-affine index expression in rank space",
            Severity.WARNING,
            "lower",
        ),
        CodeInfo(
            "TW205",
            "unrecognized (non-commutative) reduction pattern",
            Severity.WARNING,
            "lower",
        ),
        CodeInfo(
            "TW206",
            "dynamic shape: extent depends on runtime data values",
            Severity.WARNING,
            "lower",
        ),
        CodeInfo(
            "TW207",
            "call to a helper with no lowerable summary",
            Severity.WARNING,
            "lower",
        ),
        CodeInfo(
            "TW208",
            "spec provides no SoA-native kernel to lower",
            Severity.WARNING,
            "lower",
        ),
        CodeInfo(
            "TW209",
            "kernel lowers to typed column gathers under recorded "
            "assumptions",
            Severity.INFO,
            "lower",
        ),
        # --- static independence (TW21x) -----------------------------
        CodeInfo(
            "TW210",
            "cross-task write overlap: write not keyed by the outer "
            "index",
            Severity.ERROR,
            "independence",
        ),
        CodeInfo(
            "TW211",
            "write target or index unresolved (independence "
            "unprovable statically)",
            Severity.WARNING,
            "independence",
        ),
        CodeInfo(
            "TW212",
            "disjointness relies on a verified injective index column",
            Severity.INFO,
            "independence",
        ),
        CodeInfo(
            "TW213",
            "commutative reduction assumed privatized per task",
            Severity.INFO,
            "independence",
        ),
        CodeInfo(
            "TW214",
            "kernel effects incomplete (unknown helper): write set "
            "unproven",
            Severity.WARNING,
            "independence",
        ),
        # --- locality profitability (TW30x) --------------------------
        CodeInfo(
            "TW300",
            "inner footprint not derivable from the kernel IR",
            Severity.WARNING,
            "locality",
        ),
        CodeInfo(
            "TW301",
            "inner footprint fits L1: blocking transformations are "
            "neutral",
            Severity.INFO,
            "locality",
        ),
        CodeInfo(
            "TW302",
            "inner footprint exceeds L1 but fits a deeper cache level",
            Severity.INFO,
            "locality",
        ),
        CodeInfo(
            "TW303",
            "outer-point reuse not statically derivable from the "
            "truncation",
            Severity.WARNING,
            "locality",
        ),
        CodeInfo(
            "TW304",
            "truncation-limited reuse: sampled density discounts the "
            "effective footprint",
            Severity.INFO,
            "locality",
        ),
        CodeInfo(
            "TW305",
            "profitability judged against an assumed cache model",
            Severity.INFO,
            "locality",
        ),
        CodeInfo(
            "TW306",
            "effective footprint exceeds the last-level cache: "
            "point blocking predicted regressive",
            Severity.WARNING,
            "locality",
        ),
]

#: The full catalog of stable diagnostic codes.
CATALOG: dict[str, CodeInfo] = {info.code: info for info in _REGISTRY}

#: Every registered code, in registration order — including any
#: accidental duplicate, so ``len(ALL_CODES) == len(set(ALL_CODES))``
#: is a meaningful uniqueness check.
ALL_CODES: tuple[str, ...] = tuple(info.code for info in _REGISTRY)

#: The closed set of verdict dimensions a code may affect.
AFFECTS_DOMAINS: tuple[str, ...] = (
    "input",
    "schedule",
    "parallel",
    "backend",
    "lower",
    "independence",
    "locality",
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding, pinned to a source span.

    ``line``/``col`` are 1-based line and 0-based column of the AST
    node that triggered the finding (0/0 when no span applies, e.g. a
    parse failure without location).
    """

    code: str
    severity: Severity
    message: str
    line: int = 0
    col: int = 0
    #: optional remediation hint rendered below the message
    hint: Optional[str] = None

    def format(self, filename: str = "<source>") -> str:
        """Render the classic ``file:line:col: severity[code]`` line."""
        text = (
            f"{filename}:{self.line}:{self.col}: "
            f"{self.severity}[{self.code}]: {self.message}"
        )
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict:
        """JSON-ready dict (stable keys; used by ``--json``)."""
        payload = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "line": self.line,
            "col": self.col,
        }
        if self.hint:
            payload["hint"] = self.hint
        return payload


def make_diagnostic(
    code: str,
    message: str,
    node: object = None,
    hint: Optional[str] = None,
) -> Diagnostic:
    """Build a diagnostic, pulling severity from the catalog.

    ``node`` may be any object with ``lineno``/``col_offset`` (an AST
    node) or ``None`` for findings without a source span.  Unknown
    codes are a programming error, not an input error.
    """
    if code not in CATALOG:
        raise KeyError(f"diagnostic code {code!r} is not in the catalog")
    return Diagnostic(
        code=code,
        severity=CATALOG[code].severity,
        message=message,
        line=getattr(node, "lineno", 0) or 0,
        col=getattr(node, "col_offset", 0) or 0,
        hint=hint,
    )


@dataclass
class DiagnosticSink:
    """Collector the analysis passes emit into.

    Deduplicates exact repeats (same code, span, and message) so one
    unknown helper called in a loop does not flood the report, and
    honours per-line ``# lint: ignore[TW0xx]`` suppressions.
    """

    #: line -> set of codes suppressed on that line
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: findings dropped by a suppression pragma (kept for reporting)
    suppressed: list[Diagnostic] = field(default_factory=list)

    def emit(
        self,
        code: str,
        message: str,
        node: object = None,
        hint: Optional[str] = None,
    ) -> None:
        """Record one finding (deduplicated, suppression-aware)."""
        diagnostic = make_diagnostic(code, message, node, hint)
        if diagnostic.code in self.suppressions.get(diagnostic.line, set()):
            self.suppressed.append(diagnostic)
            return
        if diagnostic not in self.diagnostics:
            self.diagnostics.append(diagnostic)

    def extend(self, other: "DiagnosticSink") -> None:
        """Fold another sink's findings into this one."""
        for diagnostic in other.diagnostics:
            if diagnostic not in self.diagnostics:
                self.diagnostics.append(diagnostic)
        self.suppressed.extend(other.suppressed)

    @property
    def errors(self) -> list[Diagnostic]:
        """Findings that refute the safety proof."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Findings that leave a hole in the safety proof."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]
