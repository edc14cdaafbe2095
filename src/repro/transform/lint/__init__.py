"""Static schedule-safety analysis for the transformation tool.

The paper's §5 prototype performs only a syntactic template check and
"relies on the programmer to only annotate nested recursive functions
that can be safely transformed"; :mod:`repro.core.soundness` verifies
§3.3 soundness *dynamically*, per concrete input.  This subpackage
closes the gap with a static verdict decided from the code itself:

* :mod:`~repro.transform.lint.footprints` infers the read/write
  footprint of the work statements (stores, augmented assigns,
  known-mutating calls, aliases, globals);
* :mod:`~repro.transform.lint.purity` checks that guards and child
  expressions are pure and detects adaptive (NN/KNN/VP-style) pruning;
* :mod:`~repro.transform.lint.parallel_safety` intersects footprints
  across spawnable outer subtrees for the §7.3 executor;
* :mod:`~repro.transform.lint.diagnostics` and
  :mod:`~repro.transform.lint.report` carry the findings as stable
  ``TW0xx`` diagnostics folded into a per-pair verdict;
* :mod:`~repro.transform.lint.kernel_ir` lifts a spec's live kernels
  into one IR, extracted once per kernel family and read by every
  spec-level pass below;
* :mod:`~repro.transform.lint.backend` extends the analysis to the
  spec/kernel layer (``TW1xx``): it proves — or refuses to prove —
  that a spec's vectorized ``work_batch``/``work_batch_soa``/
  ``truncate_inner2_batch`` kernels conform to their scalar
  counterparts, gating which executors ``backend="auto"`` may pick;
* :mod:`~repro.transform.lint.lower` certifies the kernels (``TW2xx``):
  *lowerability* for the fused/compiled backend and *static outer-task
  independence* for the parallel one — the static proof that lets
  ``check_outer_independence`` skip its dynamic warm-up probe;
* :mod:`~repro.transform.lint.locality` judges the transformations'
  profitability against a cache model (``TW30x``).

Two in-source pragmas steer the analysis::

    # lint: assume-pure: dist, count_pairs    (helpers that only read)
    some_statement()  # lint: ignore[TW013]   (suppress on this line)

Entry points: :func:`lint_source` for source text (annotated or with
explicit names) and :func:`lint_template` when recognition already
happened.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from repro.errors import TransformError
from repro.transform.analysis import TruncationAnalysis, analyze_truncation
from repro.transform.lint.diagnostics import (
    CATALOG,
    CodeInfo,
    Diagnostic,
    DiagnosticSink,
    Severity,
    make_diagnostic,
)
from repro.transform.lint.footprints import (
    Access,
    AccessPath,
    FootprintAnalyzer,
    Region,
    WorkFootprint,
    analyze_work,
)
from repro.transform.lint.parallel_safety import check_parallel_safety
from repro.transform.lint.purity import (
    check_adaptive_truncation,
    check_child_purity,
    check_guard_purity,
)
from repro.transform.lint.backend import (
    SpecConformanceReport,
    SpecVerdict,
    lint_spec,
)
from repro.transform.lint.kernel_ir import (
    KernelIR,
    extract_kernel_ir,
    spec_kernel_irs,
)
from repro.transform.lint.locality import (
    LocalityReport,
    LocalityVerdict,
    lint_locality,
)
from repro.transform.lint.lower import (
    IndependenceVerdict,
    LowerReport,
    LowerVerdict,
    lint_lower,
    static_independence,
)
from repro.transform.lint.report import LintReport, Verdict, derive_verdict
from repro.transform.recognizer import RecursionTemplate, recognize

__all__ = [
    "CATALOG",
    "Access",
    "AccessPath",
    "CodeInfo",
    "Diagnostic",
    "DiagnosticSink",
    "FootprintAnalyzer",
    "IndependenceVerdict",
    "KernelIR",
    "LintReport",
    "LocalityReport",
    "LocalityVerdict",
    "LowerReport",
    "LowerVerdict",
    "Region",
    "Severity",
    "SpecConformanceReport",
    "SpecVerdict",
    "Verdict",
    "WorkFootprint",
    "analyze_work",
    "check_adaptive_truncation",
    "check_child_purity",
    "check_guard_purity",
    "check_parallel_safety",
    "collect_pragmas",
    "derive_verdict",
    "extract_kernel_ir",
    "spec_kernel_irs",
    "lint_locality",
    "lint_lower",
    "lint_source",
    "lint_spec",
    "lint_template",
    "make_diagnostic",
    "static_independence",
]

_ASSUME_PURE_RE = re.compile(r"#\s*lint:\s*assume-pure:\s*([\w\s,.]+)")
_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Z0-9,\s]+)\]")


def collect_pragmas(source: str) -> tuple[frozenset[str], dict[int, set[str]]]:
    """Extract lint pragmas from source text.

    Returns ``(assume_pure_names, suppressions)`` where suppressions
    maps a 1-based line number to the codes ignored on that line.
    """
    assume_pure: set[str] = set()
    suppressions: dict[int, set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        pure_match = _ASSUME_PURE_RE.search(line)
        if pure_match:
            assume_pure.update(
                name.strip()
                for name in pure_match.group(1).split(",")
                if name.strip()
            )
        ignore_match = _IGNORE_RE.search(line)
        if ignore_match:
            codes = {
                code.strip()
                for code in ignore_match.group(1).split(",")
                if code.strip()
            }
            suppressions.setdefault(number, set()).update(codes)
    return frozenset(assume_pure), suppressions


def lint_template(
    template: RecursionTemplate,
    analysis: Optional[TruncationAnalysis] = None,
    *,
    assume_pure: Iterable[str] = (),
    suppressions: Optional[dict[int, set[str]]] = None,
    filename: str = "<source>",
) -> LintReport:
    """Lint an already-recognized pair (the analysis core).

    ``analysis`` may be omitted; it is recomputed, and a failure there
    (an outer-only disjunct, TW003) becomes a diagnostic rather than an
    exception.
    """
    sink = DiagnosticSink(suppressions=dict(suppressions or {}))
    irregular: Optional[bool] = None
    if analysis is None:
        try:
            analysis = analyze_truncation(template)
        except TransformError as error:
            sink.emit(error.code, str(error))
    if analysis is not None:
        irregular = analysis.is_irregular

    work = analyze_work(template, sink, assume_pure)
    guard_reads = check_guard_purity(template, sink, assume_pure)
    check_child_purity(template, sink, assume_pure)
    check_adaptive_truncation(template, guard_reads, work, sink)
    parallel_safe = check_parallel_safety(template, work, sink)

    return LintReport(
        verdict=derive_verdict(sink, bool(irregular)),
        diagnostics=sink.diagnostics,
        suppressed=sink.suppressed,
        parallel_safe=parallel_safe,
        irregular=irregular,
        footprint=work,
        outer_name=template.outer_name,
        inner_name=template.inner_name,
        filename=filename,
    )


def lint_source(
    source: str,
    outer_name: Optional[str] = None,
    inner_name: Optional[str] = None,
    *,
    assume_pure: Iterable[str] = (),
    filename: str = "<source>",
) -> LintReport:
    """Lint module source text; never raises on bad input.

    When ``outer_name``/``inner_name`` are omitted the pair is located
    via the ``@outer_recursion``/``@inner_recursion`` annotations.
    Recognition failures (unparsable source, template violations) are
    reported as TW001/TW002/TW003 diagnostics with an *unsafe* verdict
    instead of propagating :class:`~repro.errors.TransformError`.
    """
    pragma_pure, suppressions = collect_pragmas(source)
    combined_pure = frozenset(assume_pure) | pragma_pure
    try:
        if outer_name is None or inner_name is None:
            # Imported lazily: tool imports lint for gating.
            from repro.transform.tool import find_annotated_pair

            outer_name, inner_name = find_annotated_pair(source)
        template = recognize(source, outer_name, inner_name)
    except TransformError as error:
        return LintReport(
            verdict=Verdict.UNSAFE,
            diagnostics=[make_diagnostic(error.code, str(error))],
            parallel_safe=False,
            filename=filename,
        )
    return lint_template(
        template,
        assume_pure=combined_pure,
        suppressions=suppressions,
        filename=filename,
    )
