"""Locality profitability pass (TW30x): is a transformation *worth it*?

Every other family in this package answers a legality question; this
one answers the paper's economic question (Sections 1.1/3.2): the
locality transformations pay off only when the inner structure's
working set fits some cache level *and* is actually revisited across
outer points.  The pass infers, per spec, without running the kernels:

**Footprint** — the bytes one inner-subtree working set occupies, from
the typed kernel IR of every kernel role: per-inner-node structural
bytes, plus the live sizes of each node payload the kernels read along
the inner axis (``attr_reads``/SoA columns), plus the per-inner-element
slices of environment arrays indexed by an inner-axis dimension
(e.g. matmul's ``b[:, cols]``).  Writes are excluded — a streamed
store does not need to stay resident to be cheap.

**Reuse** — the fraction of the inner tree a typical outer point
revisits.  Regular truncation means full reuse (factor 1.0).  An
irregular spec that declares pre-evaluation legal
(``truncate_inner2_batch``) gets a sampled truncation-density discount
(the same read-only probe ``choose_backend`` uses); a stateful
truncation cannot be pre-evaluated, so reuse — and with it the
interchange/twist verdicts — stays ``unknown``.

**Verdicts** — ``profitable`` / ``neutral`` / ``regressive`` /
``unknown`` per transformation (``interchange``, ``twist``,
``layout:veb``, ``layout:bfs``), by comparing the effective footprint
(footprint x reuse) against a :class:`~repro.memory.cachemodel.
CacheModel`.  A working set already inside L1 makes blocking *neutral*
(nothing to win); one beyond the last-level cache makes point blocking
(interchange) *regressive* (tiling overhead with no hits to show for
it) while twisting — parameterless, every-level-at-once — degrades to
neutral-or-better, never regressive (Section 3.2).

The default cache model is the paper's evaluation Xeon, **not** a host
probe: verdicts pinned in fixtures and CI must not depend on the
machine running the analyzer.  ``lint-locality --probe-host`` opts in
to real capacities.

These verdicts never gate legality.  ``choose_backend`` cites them as
evidence (``BackendChoice.evidence``) for its order/layout and
interchange-vs-twist tie-breaks, and ``repro.bench cost-validate``
replays checked-in BENCH payloads to keep the model honest.
"""

from __future__ import annotations

import enum
import json
import types
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.spec import NestedRecursionSpec
from repro.memo import TreeMemo
from repro.memory.cachemodel import CacheModel
from repro.transform.lint.diagnostics import Diagnostic, DiagnosticSink
from repro.transform.lint.kernel_ir import (
    AFFINE,
    GATHER,
    KernelIR,
    clear_ir_cache,
    spec_cache_key,
    spec_kernel_irs,
)

__all__ = [
    "LocalityReport",
    "LocalityVerdict",
    "TRANSFORMS",
    "clear_cache",
    "lint_locality",
]

#: JSON payload schema (shared family with the other lint reports).
SCHEMA_VERSION = 2

#: The transformations the pass predicts profitability for.
TRANSFORMS = ("interchange", "twist", "layout:veb", "layout:bfs")

#: Modeled resident bytes per inner node for the traversal structure
#: itself (rank/extent words plus child links in the packed layouts).
STRUCT_BYTES = 32

#: Below this reuse fraction there is effectively nothing to revisit,
#: so blocking for reuse cannot pay for its own bookkeeping.
MIN_REUSE = 0.05

#: kernel roles whose reads count toward the inner working set
_FOOTPRINT_ROLES = (
    "work",
    "work_batch",
    "work_batch_soa",
    "truncate_inner2",
    "truncate_inner2_batch",
)

_MISSING = object()


class LocalityVerdict(enum.Enum):
    """Predicted payoff of one locality transformation."""

    PROFITABLE = "profitable"
    NEUTRAL = "neutral"
    REGRESSIVE = "regressive"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


@dataclass
class LocalityReport:
    """Everything one ``lint-locality`` run concluded about a spec."""

    spec_name: str
    cache_model: CacheModel
    #: inner working set in bytes, ``None`` when not derivable
    footprint_bytes: Optional[int]
    footprint_detail: str
    #: fraction of the inner tree an outer point revisits, ``None``
    #: when the truncation cannot be statically pre-evaluated
    reuse_factor: Optional[float]
    reuse_detail: str
    verdicts: dict[str, LocalityVerdict] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def effective_footprint_bytes(self) -> Optional[float]:
        """Footprint discounted by reuse — what blocking must keep hot."""
        if self.footprint_bytes is None:
            return None
        if self.reuse_factor is None:
            return float(self.footprint_bytes)
        return self.footprint_bytes * self.reuse_factor

    @property
    def fitting_level(self) -> Optional[str]:
        """Smallest cache level holding the effective footprint."""
        effective = self.effective_footprint_bytes
        if effective is None:
            return None
        return self.cache_model.fitting_level(effective)

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

    def has_unknown(self) -> bool:
        """True when any transformation's payoff stayed unresolved."""
        return any(
            verdict is LocalityVerdict.UNKNOWN
            for verdict in self.verdicts.values()
        )

    def render(self) -> str:
        """Human-readable multi-line report (the CLI's default output)."""
        lines = [
            diagnostic.format(self.spec_name)
            for diagnostic in sorted(
                self.diagnostics, key=lambda d: (d.line, d.col, d.code)
            )
        ]
        footprint = (
            f"{self.footprint_bytes} B"
            if self.footprint_bytes is not None
            else "unknown"
        )
        reuse = (
            f"{self.reuse_factor:.3f}"
            if self.reuse_factor is not None
            else "unknown"
        )
        lines.append(
            f"{self.spec_name}: footprint: {footprint} "
            f"({self.footprint_detail}); reuse: {reuse} "
            f"({self.reuse_detail}); cache model: "
            f"{self.cache_model.source}"
        )
        for transform in TRANSFORMS:
            verdict = self.verdicts.get(transform, LocalityVerdict.UNKNOWN)
            reason = self.reasons.get(transform, "")
            lines.append(
                f"{self.spec_name}: {transform}: {verdict} ({reason})"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-ready dict with stable keys (the ``--json`` payload)."""
        effective = self.effective_footprint_bytes
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "locality",
            "spec": self.spec_name,
            "cache_model": self.cache_model.to_json(),
            "footprint_bytes": self.footprint_bytes,
            "footprint_detail": self.footprint_detail,
            "reuse_factor": self.reuse_factor,
            "reuse_detail": self.reuse_detail,
            "effective_footprint_bytes": effective,
            "fitting_level": self.fitting_level,
            "verdicts": {
                transform: str(verdict)
                for transform, verdict in self.verdicts.items()
            },
            "reasons": dict(self.reasons),
            "diagnostics": [d.to_json() for d in self.diagnostics],
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
# Footprint inference
# --------------------------------------------------------------------


def _resolve_live_value(fn: Any, label: str) -> Any:
    """Best-effort: the live object an IR array label refers to.

    Resolves the label's first segment through the kernel's closure,
    then its globals; for bound-method kernels a first segment matching
    the receiver's lowercased type name resolves to the receiver (the
    IR labels ``self``-reached state that way).  Remaining dotted
    segments are plain attribute hops.  Returns ``None`` whenever any
    hop fails — the caller treats that as "cannot size this array".
    """
    target = fn
    self_obj = None
    if isinstance(fn, types.MethodType):
        self_obj = fn.__self__
        target = fn.__func__
    if not isinstance(target, types.FunctionType):
        return None
    head, _, rest = label.partition(".")
    value = _MISSING
    for var, cell in zip(
        target.__code__.co_freevars, target.__closure__ or ()
    ):
        if var == head:
            try:
                value = cell.cell_contents
            except ValueError:
                return None
            break
    if value is _MISSING:
        value = target.__globals__.get(head, _MISSING)
    if (
        value is _MISSING
        and self_obj is not None
        and head == type(self_obj).__name__.lower()
    ):
        value = self_obj
    if value is _MISSING:
        return None
    for part in rest.split(".") if rest else ():
        value = getattr(value, part, _MISSING)
        if value is _MISSING:
            return None
    return value


#: (inner root, read fields) -> (payload bytes, counted fields).  The
#: scan depends on the inner tree alone, so every spec over one inner
#: tree shares it — the parallel runtime's task specs differ only in
#: their outer root.
_PAYLOAD_CACHE = TreeMemo(cap=64)


def _inner_payload_bytes(
    spec: NestedRecursionSpec, attrs: set[str]
) -> tuple[int, list[str]]:
    """:func:`_scan_payload_bytes`, memoized on the live inner root."""
    roots = (spec.inner_root,)
    key = frozenset(attrs)
    cached = _PAYLOAD_CACHE.get(key, roots)
    if cached is None:
        cached = _scan_payload_bytes(spec.inner_root, attrs)
        _PAYLOAD_CACHE.put(key, roots, cached)
    return cached


def _scan_payload_bytes(inner_root: Any, attrs: set[str]) -> tuple[int, list[str]]:
    """Bytes of the read inner-node payloads, summed over the live tree.

    One O(n) preorder scan; per node, numeric fields count their
    itemsize, ndarray fields their ``nbytes``, and structural or
    non-numeric fields (children tuples, labels, ``None`` holes)
    nothing — the struct term already covers the traversal skeleton.
    """
    per_attr: dict[str, int] = {attr: 0 for attr in attrs}
    for node in inner_root.iter_preorder():
        for attr in attrs:
            value = getattr(node, attr, None)
            if value is None:
                continue
            if isinstance(value, np.ndarray):
                per_attr[attr] += value.nbytes
            elif isinstance(value, np.generic):
                per_attr[attr] += value.dtype.itemsize
            elif isinstance(value, (bool, int, float)):
                per_attr[attr] += 8
    counted = sorted(attr for attr in attrs if per_attr[attr] > 0)
    return sum(per_attr.values()), counted


def _inner_dim_index(access) -> Optional[int]:
    """Position of the first inner-axis index dimension, if any."""
    for position, dim in enumerate(access.dims):
        if dim.axis == "inner" and dim.kind in (GATHER, AFFINE):
            return position
    return None


def _infer_footprint(
    spec: NestedRecursionSpec,
    irs: dict[str, tuple[Any, KernelIR]],
    sink: DiagnosticSink,
) -> tuple[Optional[int], str]:
    """The inner working set in bytes, or ``None`` with a TW300 trail."""
    if not irs:
        sink.emit(
            "TW300",
            "spec carries no analyzable kernels, so the inner working "
            "set cannot be sized",
        )
        return None, "no kernels to analyze"
    inner_size = max(1, spec.inner_root.size)
    attrs: set[str] = set()
    #: environment-array label -> per-inner-element contribution cap
    env_arrays: dict[str, int] = {}
    unresolved: list[str] = []
    any_analyzable = False
    for role, (fn, ir) in irs.items():
        if not ir.analyzable:
            sink.emit(
                "TW300",
                f"{role}: kernel source unavailable; its inner reads "
                "are unknown",
            )
            continue
        any_analyzable = True
        attrs.update(attr for axis, attr in ir.attr_reads if axis == "inner")
        for access in ir.reads():
            if access.array.startswith("inner."):
                attrs.add(access.array.split(".", 1)[1])
                continue
            if access.array.startswith(("outer.", "<fresh")):
                continue
            position = _inner_dim_index(access)
            if position is None:
                continue
            value = _resolve_live_value(fn, access.array)
            if not isinstance(value, np.ndarray):
                if access.array not in unresolved:
                    unresolved.append(access.array)
                continue
            if position >= value.ndim or value.shape[position] == 0:
                continue
            per_element = value.nbytes // value.shape[position]
            contribution = min(per_element * inner_size, value.nbytes)
            env_arrays[access.array] = max(
                env_arrays.get(access.array, 0), contribution
            )
    if not any_analyzable:
        return None, "no kernel source was analyzable"
    if unresolved:
        names = ", ".join(sorted(unresolved))
        sink.emit(
            "TW300",
            f"arrays read along the inner axis could not be resolved "
            f"to live ndarrays ({names}); the working set is "
            "underestimated by an unknown amount",
        )
        return None, f"unsized inner-axis arrays: {names}"
    payload_bytes, counted = _inner_payload_bytes(spec, attrs)
    struct_bytes = STRUCT_BYTES * inner_size
    total = struct_bytes + payload_bytes + sum(env_arrays.values())
    parts = [f"{inner_size} inner nodes x {STRUCT_BYTES} B struct"]
    if counted:
        parts.append(
            f"payload fields {', '.join(counted)} ({payload_bytes} B)"
        )
    for label in sorted(env_arrays):
        parts.append(f"array {label} ({env_arrays[label]} B)")
    return total, "; ".join(parts)


# --------------------------------------------------------------------
# Reuse inference
# --------------------------------------------------------------------


def _infer_reuse(
    spec: NestedRecursionSpec, sink: DiagnosticSink
) -> tuple[Optional[float], str]:
    """Fraction of the inner tree an outer point revisits."""
    if not spec.is_irregular:
        return 1.0, (
            "regular truncation: every outer point traverses the whole "
            "inner tree"
        )
    if spec.truncation_observes_work:
        sink.emit(
            "TW303",
            "truncate_inner2 observes work state, so the visited "
            "fraction of the inner tree cannot be pre-evaluated "
            "statically",
            hint="the dynamic schedule decides reuse at run time; "
            "interchange/twist profitability stays unknown",
        )
        return None, "stateful truncation: reuse decided at run time"
    if spec.truncate_inner2_batch is None:
        sink.emit(
            "TW303",
            "irregular truncation without a block form: pre-evaluating "
            "truncate_inner2 is not declared side-effect free, so the "
            "reuse fraction cannot be sampled",
            hint="provide truncate_inner2_batch to enable the "
            "read-only density probe",
        )
        return None, "no legally pre-evaluable truncation form"
    from repro.core.backend_select import _sample_truncation_density

    density = _sample_truncation_density(spec)
    if density is None:
        sink.emit(
            "TW303",
            "the block truncation form declined every sampled outer "
            "leaf, so the reuse fraction could not be measured",
        )
        return None, "block truncation produced no sampled decisions"
    reuse = max(0.0, min(1.0, 1.0 - density))
    sink.emit(
        "TW304",
        f"sampled truncation density {density:.3f} over outer leaves "
        f"discounts the effective working set to a {reuse:.3f} "
        "fraction of the inner tree",
    )
    return reuse, (
        f"1 - sampled truncation density {density:.3f} (read-only "
        "probe over outer leaves)"
    )


# --------------------------------------------------------------------
# Verdicts
# --------------------------------------------------------------------


def _judge(
    report_footprint: Optional[int],
    reuse: Optional[float],
    model: CacheModel,
    sink: DiagnosticSink,
) -> tuple[dict[str, LocalityVerdict], dict[str, str]]:
    """The per-transformation verdict table (see module docstring)."""
    verdicts: dict[str, LocalityVerdict] = {}
    reasons: dict[str, str] = {}

    def all_unknown(reason: str) -> None:
        for transform in TRANSFORMS:
            verdicts[transform] = LocalityVerdict.UNKNOWN
            reasons[transform] = reason

    if report_footprint is None:
        all_unknown("footprint not derivable (TW300)")
        return verdicts, reasons

    effective = (
        report_footprint * reuse if reuse is not None else report_footprint
    )
    level = model.fitting_level(effective)
    if level == "L1":
        sink.emit(
            "TW301",
            f"effective inner working set ({effective:.0f} B) already "
            f"fits L1 ({model.l1_bytes} B); blocking transformations "
            "have nothing left to win",
        )
    elif level is not None:
        sink.emit(
            "TW302",
            f"effective inner working set ({effective:.0f} B) exceeds "
            f"L1 ({model.l1_bytes} B) but fits {level}; point blocking "
            "can keep it resident",
        )

    # Layout verdicts depend on the *full* footprint (a layout change
    # helps every traversal of the inner tree, truncated or not).
    if report_footprint <= model.l1_bytes:
        verdicts["layout:veb"] = LocalityVerdict.NEUTRAL
        reasons["layout:veb"] = (
            f"inner tree ({report_footprint} B) fits L1; any "
            "linearization stays resident"
        )
    else:
        verdicts["layout:veb"] = LocalityVerdict.PROFITABLE
        reasons["layout:veb"] = (
            f"inner tree ({report_footprint} B) spans cache levels; "
            "van Emde Boas blocking keeps subtrees on shared lines"
        )
    verdicts["layout:bfs"] = LocalityVerdict.NEUTRAL
    reasons["layout:bfs"] = (
        "breadth-first packing helps only shallow frontiers; no "
        "predicted gain or loss over preorder"
    )

    if reuse is None:
        for transform in ("interchange", "twist"):
            verdicts[transform] = LocalityVerdict.UNKNOWN
            reasons[transform] = "outer-point reuse unknown (TW303)"
        return verdicts, reasons

    if level == "L1":
        for transform in ("interchange", "twist"):
            verdicts[transform] = LocalityVerdict.NEUTRAL
            reasons[transform] = (
                "working set already L1-resident (TW301); reordering "
                "outer points cannot add hits"
            )
        return verdicts, reasons

    if level is None:
        verdicts["interchange"] = LocalityVerdict.REGRESSIVE
        reasons["interchange"] = (
            f"effective working set ({effective:.0f} B) exceeds the "
            f"last-level cache ({model.l3_bytes} B); point blocking "
            "pays its overhead without producing hits"
        )
        sink.emit(
            "TW306",
            f"effective inner working set ({effective:.0f} B) exceeds "
            f"the last-level cache ({model.l3_bytes} B); interchange "
            "is predicted regressive",
        )
        verdicts["twist"] = (
            LocalityVerdict.PROFITABLE
            if reuse >= MIN_REUSE
            else LocalityVerdict.NEUTRAL
        )
        reasons["twist"] = (
            "twisting tiles every cache level at once; subtree blocks "
            "still fit even when the whole working set does not"
            if reuse >= MIN_REUSE
            else f"reuse fraction {reuse:.3f} leaves nothing to revisit"
        )
        return verdicts, reasons

    if reuse < MIN_REUSE:
        for transform in ("interchange", "twist"):
            verdicts[transform] = LocalityVerdict.NEUTRAL
            reasons[transform] = (
                f"reuse fraction {reuse:.3f} is below {MIN_REUSE}; "
                "blocking cannot recoup its bookkeeping"
            )
        return verdicts, reasons

    for transform in ("interchange", "twist"):
        verdicts[transform] = LocalityVerdict.PROFITABLE
        reasons[transform] = (
            f"effective working set ({effective:.0f} B) fits {level} "
            f"with reuse fraction {reuse:.3f}; blocked outer points "
            "hit where the original schedule misses"
        )
    return verdicts, reasons


# --------------------------------------------------------------------
# Entry point + cache
# --------------------------------------------------------------------

#: cache key -> report.  Keyed on kernel code objects, live-tree
#: identity, *and* the cache model — the same spec under a different
#: machine model is a different judgement.  Capped like the backend
#: selector's choice cache; a report goes when either root dies.
_REPORT_CACHE = TreeMemo(cap=64)


def clear_cache() -> None:
    """Drop memoized locality reports, payload scans and the shared kernel IR."""
    _REPORT_CACHE.clear()
    _PAYLOAD_CACHE.clear()
    clear_ir_cache()


def lint_locality(
    spec: NestedRecursionSpec,
    cache_model: Optional[CacheModel] = None,
) -> LocalityReport:
    """Run the TW30x locality pass over one spec.

    ``cache_model`` defaults to the paper's Xeon
    (:meth:`CacheModel.paper_default`) so verdicts are deterministic
    across hosts; pass :meth:`CacheModel.probe_host` (or an explicit
    model) to judge against other capacities.  Reports are cached on
    the kernels' code objects, the live trees' identity, and the model
    — the footprint is a property of the *data*, so a new tree means a
    new measurement even under identical kernel code.
    """
    model = cache_model if cache_model is not None else CacheModel.paper_default()
    key = (spec_cache_key(spec), model)
    roots = (spec.outer_root, spec.inner_root)
    cached = _REPORT_CACHE.get(key, roots)
    if cached is not None:
        return cached
    shared = spec_kernel_irs(spec)
    irs: dict[str, tuple[Any, KernelIR]] = {
        role: (getattr(spec, role), shared[role])
        for role in _FOOTPRINT_ROLES
        if role in shared
    }
    sink = DiagnosticSink()
    footprint, footprint_detail = _infer_footprint(spec, irs, sink)
    reuse, reuse_detail = _infer_reuse(spec, sink)
    verdicts, reasons = _judge(footprint, reuse, model, sink)
    sink.emit(
        "TW305",
        f"profitability judged against the {model.source} cache model "
        f"(L1 {model.l1_bytes} B / L2 {model.l2_bytes} B / L3 "
        f"{model.l3_bytes} B)",
    )
    report = LocalityReport(
        spec_name=spec.name or "<spec>",
        cache_model=model,
        footprint_bytes=footprint,
        footprint_detail=footprint_detail,
        reuse_factor=reuse,
        reuse_detail=reuse_detail,
        verdicts=verdicts,
        reasons=reasons,
        diagnostics=list(sink.diagnostics),
    )
    _REPORT_CACHE.put(key, roots, report)
    return report
