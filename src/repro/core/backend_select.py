"""Automatic backend selection (``backend="auto"``).

Three executor families now realize every schedule — recursive
(faithful, lowest constant overhead), batched
(:mod:`repro.core.batched`), and SoA (:mod:`repro.core.soa_exec`) —
and no single one wins everywhere: the batched engine's barrier
flushes *regress* the pruning-heavy guided traversals (NN/KNN/VP)
while winning big on work-dense schedules, and the SoA engine's
packed-view setup is wasted on tiny spaces.  ``backend="auto"`` runs
the cheap calibration probe below once per (spec, schedule) and picks
a backend from structural features, so callers get near-best wall
clock without sweeping.

The probe is deliberately *read-only*: it never calls ``work`` and
never calls a truncation predicate unless the spec itself declares
pre-evaluation legal by providing ``truncate_inner2_batch`` (a
stateful ``Score`` — KDE's writes its density at prune time — must not
be probed).  Everything else comes from stored sizes, sampled arity,
and which vectorized hooks the spec carries.

The decision table is calibrated against ``BENCH_soa.json`` (see
EXPERIMENTS.md): measured per-benchmark timings at scale 1.0, both
schedules, are what the thresholds below encode.
"""

from __future__ import annotations

import os
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Optional

from repro.core.spec import NestedRecursionSpec
from repro.errors import ScheduleError

#: The ungated executor families: they run every spec, with no proof
#: or parallel plan needed.  ``choose_backend`` may also return the
#: gated ``compiled`` and ``parallel`` backends.
SINGLE_BACKENDS = ("recursive", "batched", "soa")

#: Every backend name :func:`resolve_backend` accepts besides ``auto``.
KNOWN_BACKENDS = SINGLE_BACKENDS + ("compiled", "parallel")

#: Minimum (outer x inner) iteration-space points before the real
#: multi-worker runtime can amortize pool startup and shared-memory
#: publication.  Calibrated against *serial soa* in
#: BENCH_parallel.json: below roughly a million points the serial SoA
#: backend wins on setup alone.  The fused ``compiled`` backend is
#: faster than the pool at every size measured, so certified specs
#: never reach this threshold (see :func:`_choose_backend_uncached`).
PARALLEL_SPACE_POINTS = 1_000_000

#: Below this many (outer x inner) iteration-space points, per-run
#: setup (dispatcher objects, packed-view construction on first touch)
#: outweighs any dispatch savings and the recursive executors win.
SMALL_SPACE_POINTS = 4096

#: Outer nodes sampled when estimating arity / truncation density.
PROBE_SAMPLES = 32


@dataclass(frozen=True)
class BackendChoice:
    """The selector's verdict plus the evidence it used.

    ``order`` is the recommended SoA storage linearization — only
    meaningful when ``backend`` is ``"soa"``, ``"compiled"`` (whose
    fused loop gathers through the same packed views), or
    ``"parallel"`` (whose tasks run SoA kernels); callers that did not
    pin an order themselves should adopt it.

    ``evidence`` is the deduplicated list of analyzer diagnostic codes
    the selection rested on: the TW30x locality-profitability prior on
    every automatic pick, plus the full TW10x conformance code list on
    a refusal/downgrade and the TW20x codes behind a compiled-gate
    decision.  Order is first-cited-first; it is evidence *provenance*,
    never a second verdict channel.
    """

    backend: str
    reason: str
    features: dict = field(default_factory=dict)
    order: str = "preorder"
    evidence: tuple = ()


def probe_features(spec: NestedRecursionSpec) -> dict:
    """Cheap structural calibration probe for one spec.

    Collects tree sizes, sampled mean arity, which vectorized hooks
    exist, and — only when the spec carries the (stateless, legally
    pre-evaluable) ``truncate_inner2_batch`` — a sampled truncation
    density over outer leaves.  Runs in O(sample) time and touches no
    benchmark state.
    """
    outer_root = spec.outer_root
    inner_root = spec.inner_root
    outer_size = max(1, outer_root.size)
    inner_size = max(1, inner_root.size)
    sample = list(islice(outer_root.iter_preorder(), PROBE_SAMPLES))
    arity = sum(len(node.children) for node in sample) / len(sample)
    features = {
        "outer_size": outer_size,
        "inner_size": inner_size,
        "points": outer_size * inner_size,
        "mean_arity": round(arity, 3),
        "is_irregular": spec.is_irregular,
        "observes_work": bool(spec.truncation_observes_work),
        "has_work": spec.work is not None,
        "has_work_batch": spec.work_batch is not None,
        "has_work_batch_soa": spec.work_batch_soa is not None,
        "has_block_truncation": spec.truncate_inner2_batch is not None,
        "truncation_density": None,
    }
    if spec.truncate_inner2_batch is not None:
        features["truncation_density"] = _sample_truncation_density(spec)
    return features


def _sample_truncation_density(spec: NestedRecursionSpec) -> Optional[float]:
    """Fraction of inner nodes pruned, over a sample of outer leaves.

    Uses the spec's own block form of ``truncateInner2?`` — whose
    presence is the spec's declaration that pre-evaluation has no side
    effects — on up to :data:`PROBE_SAMPLES` outer *leaves* (internal
    nodes of dual-tree specs trivially prune everything and would skew
    the estimate).
    """
    block_t2 = spec.truncate_inner2_batch
    inner_size = max(1, spec.inner_root.size)
    sampled = 0
    pruned = 0.0
    for node in spec.outer_root.iter_preorder():
        if node.children:
            continue
        decisions = block_t2(node)
        if decisions is None:
            continue
        if decisions is True or decisions is False:
            pruned += inner_size if decisions else 0
        else:
            pruned += float(sum(decisions))
        sampled += 1
        if sampled >= PROBE_SAMPLES:
            break
    if sampled == 0:
        return None
    return pruned / (sampled * inner_size)


#: Most recent analyzer failure (``None`` after a clean call).  Written
#: by :func:`conformance_verdicts`, consumed by :func:`_refuse_unproven`
#: so the failure lands in ``BackendChoice.features`` without changing
#: the public return contract.
_LAST_CONFORMANCE_ERROR: Optional[str] = None

#: One-shot guard: the analyzer-failure warning is emitted once per
#: process, not once per selection.
_CONFORMANCE_WARNED = False


def _reset_conformance_warning() -> None:
    """Re-arm the one-shot analyzer-failure warning (test hook)."""
    global _CONFORMANCE_WARNED, _LAST_CONFORMANCE_ERROR
    _CONFORMANCE_WARNED = False
    _LAST_CONFORMANCE_ERROR = None


def conformance_verdicts(spec: NestedRecursionSpec) -> Optional[dict]:
    """Per-backend conformance verdicts from the static analyzer.

    Returns ``{"recursive"|"batched"|"soa": "safe"|"needs-dynamic-check"
    |"unsafe"}`` via :func:`repro.transform.lint.backend.lint_spec`
    (memoized on the kernels' code objects, so this is cheap after the
    first call per spec family), or ``None`` when the analyzer itself
    fails.  The failure is *recorded*: a one-shot
    :class:`RuntimeWarning`, and :func:`_refuse_unproven` puts a
    ``"conformance_error"`` entry in the returned
    :class:`BackendChoice`'s features while refusing the unproven
    vectorized pick in favour of the reference executors.
    """
    global _LAST_CONFORMANCE_ERROR, _CONFORMANCE_WARNED
    _LAST_CONFORMANCE_ERROR = None
    try:
        from repro.transform.lint.backend import lint_spec

        return dict(lint_spec(spec).backends)
    except Exception as exc:  # analyzer must never block runs
        _LAST_CONFORMANCE_ERROR = f"{type(exc).__name__}: {exc}"
        if not _CONFORMANCE_WARNED:
            _CONFORMANCE_WARNED = True
            warnings.warn(
                "backend-conformance analyzer failed "
                f"({_LAST_CONFORMANCE_ERROR}); unproven vectorized "
                "backends are refused in favour of the recursive executors",
                RuntimeWarning,
                stacklevel=2,
            )
        return None


def _with_evidence(choice: BackendChoice, codes) -> BackendChoice:
    """Fold diagnostic codes into the choice's evidence, deduplicated.

    Keeps first-cited order (the existing evidence wins position over
    the new codes) so a downgrade's conformance codes do not shuffle
    the locality prior recorded before it.
    """
    merged = tuple(dict.fromkeys(tuple(choice.evidence) + tuple(codes)))
    if merged == tuple(choice.evidence):
        return choice
    return replace(choice, evidence=merged)


def _conformance_codes(spec: NestedRecursionSpec) -> tuple:
    """Every TW1xx code the conformance analyzer raised for this spec.

    A separate entry point from :func:`conformance_verdicts` (which
    returns only the per-backend verdicts and is the documented test
    seam): the downgrade path needs the *complete* diagnostic code
    list as evidence, not just the verdict that triggered it.  Any
    analyzer failure degrades to an empty tuple — evidence is
    best-effort provenance, never a gate.
    """
    try:
        from repro.transform.lint.backend import lint_spec

        return tuple(sorted(lint_spec(spec).codes()))
    except Exception:
        return ()


def _refuse_unproven(
    choice: BackendChoice, spec: NestedRecursionSpec
) -> BackendChoice:
    """Never return a backend whose conformance verdict is ``unsafe``.

    A ``needs-dynamic-check`` verdict stays selectable (the holes are
    warnings, dischargeable via ``backend="sanitize"``); an ``unsafe``
    verdict means a kernel *refutes* scalar equivalence, so the
    selector swaps to the other vectorized backend when that one is
    proven safe, else to the reference executors.  Either downgrade
    records the analyzer's *full* diagnostic code list as evidence —
    citing only the triggering verdict used to hide the sibling
    findings a caller would need to discharge the refusal.  An
    analyzer crash proves nothing, so it refuses too: the reference
    executors run, and the error lands in ``features``.
    """
    verdicts = conformance_verdicts(spec)
    if verdicts is None:
        error = _LAST_CONFORMANCE_ERROR or "no verdicts"
        choice.features["conformance_error"] = error
        return BackendChoice(
            "recursive",
            f"conformance: analyzer failed ({error}); {choice.backend!r} is "
            f"unproven, falling back to the reference executors "
            f"(structural pick was: {choice.reason})",
            choice.features,
            order=choice.order,
            evidence=choice.evidence,
        )
    # The compiled backend executes the same work_batch_soa kernel the
    # SoA engine dispatches, so it stands or falls with the soa verdict.
    verdict_key = "soa" if choice.backend == "compiled" else choice.backend
    if verdicts.get(verdict_key) != "unsafe":
        return choice
    evidence = _conformance_codes(spec)
    alternate = "soa" if verdict_key == "batched" else "batched"
    if verdicts.get(alternate) == "safe":
        # The order recommendation is evidence about the *spec* (its
        # work_batch_soa gathers favour veb blocking), not about the
        # refused backend, so the downgrade carries it instead of
        # silently resetting to preorder.
        return _with_evidence(
            BackendChoice(
                alternate,
                f"conformance: {choice.backend!r} verdict is unsafe; "
                f"{alternate!r} is proven safe (structural pick was: "
                f"{choice.reason})",
                choice.features,
                order=choice.order,
                evidence=choice.evidence,
            ),
            evidence,
        )
    return _with_evidence(
        BackendChoice(
            "recursive",
            f"conformance: {choice.backend!r} verdict is unsafe; falling "
            f"back to the reference executors (structural pick was: "
            f"{choice.reason})",
            choice.features,
            order=choice.order,
            evidence=choice.evidence,
        ),
        evidence,
    )


def _compiled_eligible(spec: NestedRecursionSpec) -> tuple[bool, str, tuple]:
    """May the fused/compiled backend run this spec?

    Proof-carrying gate: only a clean TW20x ``lowerable`` verdict from
    :func:`repro.transform.lint.lower.lint_lower` qualifies — holes
    (``needs-runtime-check``) or refutations keep the spec on the
    interpreted backends.  An analyzer crash counts as "not proven".
    Returns ``(eligible, reason, codes)`` where ``codes`` is the
    report's full diagnostic code list, cited as selection evidence.
    """
    try:
        from repro.transform.lint.lower import LowerVerdict, lint_lower

        report = lint_lower(spec)
    except Exception as exc:  # the proof gate must never block runs
        return False, f"lint-lower failed ({type(exc).__name__}: {exc})", ()
    codes = tuple(sorted(report.codes()))
    if report.lower is LowerVerdict.LOWERABLE:
        return True, report.lower_reason, codes
    return False, f"{report.lower}: {report.lower_reason}", codes


def _locality_prior(spec: NestedRecursionSpec, features: dict) -> tuple:
    """The TW30x locality cost prior, as evidence codes plus features.

    Runs :func:`repro.transform.lint.locality.lint_locality` under the
    deterministic paper cache model (memoized per spec family and live
    trees, so the steady state costs one dict lookup), records the
    per-transformation verdicts in ``features["locality"]``, and
    returns the report's diagnostic codes for
    :attr:`BackendChoice.evidence`.  The prior never changes *which*
    backend is safe — it is the profitability context the decision
    table's order/layout recommendations cite.  An analyzer failure
    degrades to no prior, recorded in ``features["locality_error"]``.
    """
    try:
        from repro.transform.lint.locality import lint_locality

        report = lint_locality(spec)
    except Exception as exc:  # the prior must never block selection
        features["locality_error"] = f"{type(exc).__name__}: {exc}"
        return ()
    features["locality"] = {
        transform: str(verdict)
        for transform, verdict in sorted(report.verdicts.items())
    }
    return tuple(sorted(report.codes()))


# ---------------------------------------------------------------------------
# Probe-once choice cache (keyed by finalized-tree identity)

#: key -> (outer ref, inner ref, outer size, inner size, choice).  The
#: key pairs the live roots' ids with the kernels' code-object key, so
#: a fresh spec instance over the *same finalized trees* (a resident
#: service re-specs per batch) hits without re-probing; the weakrefs
#: and stored sizes invalidate the entry if a root dies (ids can be
#: reused) or is re-finalized to a different shape.
_CHOICE_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_CHOICE_CACHE_CAP = 64


def _choice_cache_key(
    spec: NestedRecursionSpec, schedule_name: str, allow_unproven: bool
) -> Optional[tuple]:
    try:
        from repro.transform.lint.kernel_ir import spec_cache_key

        kernel_key = spec_cache_key(spec)
    except Exception:  # un-keyable spec: selection just runs uncached
        return None
    return (
        id(spec.outer_root),
        id(spec.inner_root),
        kernel_key,
        schedule_name,
        bool(allow_unproven),
        spec.parallel_plan is not None,
    )


def _choice_cache_get(
    key: tuple, spec: NestedRecursionSpec
) -> Optional[BackendChoice]:
    entry = _CHOICE_CACHE.get(key)
    if entry is None:
        return None
    ref_outer, ref_inner, outer_size, inner_size, choice = entry
    if (
        ref_outer() is spec.outer_root
        and ref_inner() is spec.inner_root
        and spec.outer_root.size == outer_size
        and spec.inner_root.size == inner_size
    ):
        _CHOICE_CACHE.move_to_end(key)
        return choice
    del _CHOICE_CACHE[key]
    return None


def _choice_cache_put(
    key: tuple, spec: NestedRecursionSpec, choice: BackendChoice
) -> None:
    try:
        entry = (
            weakref.ref(spec.outer_root),
            weakref.ref(spec.inner_root),
            spec.outer_root.size,
            spec.inner_root.size,
            choice,
        )
    except TypeError:  # un-weakrefable custom nodes: skip caching
        return
    _CHOICE_CACHE[key] = entry
    while len(_CHOICE_CACHE) > _CHOICE_CACHE_CAP:
        _CHOICE_CACHE.popitem(last=False)


def clear_choice_cache() -> None:
    """Drop every cached backend choice (test/service hook)."""
    _CHOICE_CACHE.clear()


def choose_backend(
    spec: NestedRecursionSpec,
    schedule_name: str = "original",
    features: Optional[dict] = None,
    allow_unproven: bool = False,
) -> BackendChoice:
    """Pick recursive/batched/soa/compiled for one spec, probe-once.

    The structural decision is memoized per (finalized tree pair,
    kernel family, schedule): repeated selections against a resident
    reference tree — the serving steady state — return the pinned
    :class:`BackendChoice` with **zero** probe work (no tree sampling,
    no truncation-density pass, no analyzer round-trip).  Callers that
    pass explicit ``features`` bypass the cache, and a root that dies
    or is re-finalized to a different size invalidates its entries.
    Cached hits share the same ``BackendChoice`` (and features dict).

    ``schedule_name`` is recorded as evidence in ``features`` (and is
    part of the memo key) but never changes the verdict: the decision
    table's calibration found schedule-independent winners.
    """
    if features is None:
        cache_key = _choice_cache_key(spec, schedule_name, allow_unproven)
        if cache_key is not None:
            cached = _choice_cache_get(cache_key, spec)
            if cached is not None:
                return cached
    else:
        cache_key = None
    choice = _choose_backend_uncached(
        spec, schedule_name, features, allow_unproven
    )
    if cache_key is not None:
        _choice_cache_put(cache_key, spec, choice)
    return choice


def _choose_backend_uncached(
    spec: NestedRecursionSpec,
    schedule_name: str = "original",
    features: Optional[dict] = None,
    allow_unproven: bool = False,
) -> BackendChoice:
    """Pick recursive/batched/soa/compiled for one spec.

    ``schedule_name`` is *recorded* as evidence (``features["schedule"]``)
    but does not change the decision: the BENCH_soa.json calibration
    found the same winner per spec on every schedule (the twist rows
    shift the timings, never the ranking), so the table below is
    deliberately schedule-independent.  A test pins this contract
    (``choose_backend(spec, "original") == choose_backend(spec,
    "twist")`` up to the recorded schedule).

    The structural decision is filtered through the backend-conformance
    analyzer: a backend whose verdict is ``unsafe`` is never returned
    (see :func:`_refuse_unproven`).  ``allow_unproven=True`` skips that
    filter — the explicit override for callers who have discharged the
    verdict themselves.

    The rules, in order (first match wins), with the BENCH_soa.json /
    BENCH_parallel.json evidence behind each:

    1. **Tiny spaces -> recursive.**  Below ~4K iteration-space points
       every deferred-dispatch engine loses to plain recursion on
       setup cost alone.
    2. **Certified SoA work -> compiled, in veb order.**  A regular
       spec whose ``work_batch_soa`` kernel carries a clean TW20x
       ``lowerable`` verdict (TJ, MM, Gram) runs the fused backend on
       every host: the traversal's positions are streamed in blocks
       (twist's sequence generated once and cached narrow) and the
       kernel dispatched per block — no per-pair Python on the hot
       path.  One fused twisted traversal finishes before the process
       pool has started (the paper's §7.3 spawns tasks only to feed
       locality-friendly work inside each task), so this rule comes
       before parallelism.  The gate is proof-carrying: anything short
       of ``lowerable`` falls through.
    3. **Huge spaces with a proven-parallel plan -> parallel.**  When
       the spec carries a :class:`~repro.core.parallel_exec.ParallelPlan`,
       the host has multiple cores, the space exceeds
       :data:`PARALLEL_SPACE_POINTS`, and the plan's witness proves
       outer-independence (:func:`~repro.core.parallel_exec.check_outer_independence`
       — the dynamic counterpart of the analyzer's TW030), the real
       multi-worker runtime wins over the serial interpreted backends
       (PC and NN).  Parallelism is *refused* — never silently
       selected — when independence is unproven.
    4. **Stateful truncation -> soa.**  When ``truncateInner2?``
       observes ``work`` (NN/KNN/VP bounds, KDE), the batched engine's
       per-outer barriers shred its blocks (NN regressed to 0.35x);
       the SoA engine executes work inline over packed index space and
       keeps the explicit-stack savings.
    5. **SoA-native work -> soa, in veb order.**  A spec carrying
       ``work_batch_soa`` dispatches integer position blocks —
       strictly less per-pair Python than the node-object dispatcher on
       every schedule.  For these regular specs the van-Emde-Boas
       blocked layout beats the default (BENCH_soa.json, TJ original:
       0.067s veb vs 0.079s preorder), so the choice recommends
       ``order="veb"``.
    6. **Everything else -> batched.**  Stateless irregular specs (PC)
       and plain ``work_batch`` specs ride the mature node-block
       engine; the SoA engine matches it within noise here, so the
       tie breaks toward the longer-serving backend.
    """
    if features is None:
        features = probe_features(spec)
    features["schedule"] = schedule_name
    prior = _locality_prior(spec, features)
    locality = features.get("locality", {})
    if features["points"] < SMALL_SPACE_POINTS:
        return _with_evidence(
            BackendChoice(
                "recursive",
                f"iteration space has only {features['points']} points "
                f"(< {SMALL_SPACE_POINTS}); dispatch setup would dominate",
                features,
            ),
            prior,
        )
    # The locality prior annotates the order recommendation: "veb" is
    # cited as profitable blocking (TW302) when the working set spans
    # cache levels, or kept as a no-cost default when it already fits
    # L1 (TW301) — the decision table stays the safety envelope either
    # way.
    veb_verdict = locality.get("layout:veb", "unknown")
    veb_note = f"; locality verdict for layout:veb is {veb_verdict} (TW30x)"
    regular_soa = features["has_work_batch_soa"] and not features["is_irregular"]
    lowerable = False
    if regular_soa:
        lowerable, why, lower_codes = _compiled_eligible(spec)
        features["lowerable"] = lowerable
        prior = tuple(prior) + lower_codes
    parallel = None if lowerable else _consider_parallel(spec, features)
    if parallel is not None:
        return _with_evidence(parallel, prior)
    if lowerable:
        choice = BackendChoice(
            "compiled",
            "TW20x verdict is lowerable: fuse the traversal with "
            f"the certified work_batch_soa kernel ({why}); veb "
            f"storage order recommended{veb_note}",
            features,
            order="veb",
        )
    elif features["is_irregular"] and features["observes_work"]:
        choice = BackendChoice(
            "soa",
            "truncation observes work: barriers would shred deferred "
            "blocks, so run inline work over packed index space",
            features,
        )
    elif regular_soa:
        choice = BackendChoice(
            "soa",
            "spec provides work_batch_soa: position-block dispatch "
            "over packed payload columns; veb storage order "
            "recommended (BENCH_soa: TJ original 0.067s veb vs "
            f"0.079s preorder); compiled refused ({why}){veb_note}",
            features,
            order="veb",
        )
    elif features["has_work_batch_soa"]:
        choice = BackendChoice(
            "soa",
            "spec provides work_batch_soa: position-block dispatch over "
            "packed payload columns; veb storage order recommended "
            f"(BENCH_soa: TJ original 0.067s veb vs 0.079s preorder)"
            f"{veb_note}",
            features,
            order="veb",
        )
    else:
        choice = BackendChoice(
            "batched",
            "stateless spec without SoA-native work: node-block dispatch "
            "through work_batch",
            features,
        )
    choice = _with_evidence(choice, prior)
    if allow_unproven:
        return choice
    return _refuse_unproven(choice, spec)


def _consider_parallel(
    spec: NestedRecursionSpec, features: dict
) -> Optional[BackendChoice]:
    """The real multi-worker runtime, when it is provably worth it.

    Requires all of: a parallel plan on the spec, at least two host
    cores, an iteration space past :data:`PARALLEL_SPACE_POINTS`, and
    a *proven* outer-independence witness — static first: when the
    TW21x affine-footprint pass certifies the spec ``independent``,
    the proof costs zero warm-up runs; otherwise the dynamic TW030
    probe decides.  An unproven witness means refusal, not a silent
    fallback with a hidden reason — the reason string records why
    parallelism was skipped either way.
    """
    if spec.parallel_plan is None:
        return None
    cores = os.cpu_count() or 1
    if cores < 2 or features["points"] < PARALLEL_SPACE_POINTS:
        return None
    from repro.core.parallel_exec import check_outer_independence

    proven, why = check_outer_independence(spec.parallel_plan, spec)
    if not proven:
        return None
    order = "veb" if features["has_work_batch_soa"] and not features["is_irregular"] else "preorder"
    return BackendChoice(
        "parallel",
        f"{features['points']} iteration-space points across {cores} "
        f"cores with a proven-parallel plan ({why})",
        features,
        order=order,
    )


def resolve_backend_choice(
    spec: NestedRecursionSpec, schedule_name: str, backend: str
) -> BackendChoice:
    """Map a user-facing backend name to a full :class:`BackendChoice`.

    ``"auto"`` returns the selector's verdict *whole* — backend, reason,
    features, and the ``order`` recommendation.  (The old string-only
    path threw ``order`` away, so auto-picked SoA ran in default
    ``preorder`` even when the selector's evidence said ``veb``;
    callers that did not pin an order themselves should adopt
    ``choice.order``.)  Explicit backend names resolve to a choice with
    the neutral ``preorder`` recommendation: a caller who named the
    backend keeps full control of the order knob.
    """
    if backend == "auto":
        return choose_backend(spec, schedule_name)
    if backend in KNOWN_BACKENDS:
        return BackendChoice(
            backend, "explicitly requested", {"schedule": schedule_name}
        )
    raise ScheduleError(
        f"unknown backend {backend!r}; known: "
        f"{list(KNOWN_BACKENDS) + ['auto']}"
    )


def resolve_backend(
    spec: NestedRecursionSpec, schedule_name: str, backend: str
) -> str:
    """Map a user-facing backend name to a concrete executor family.

    Kept as the string-returning convenience wrapper around
    :func:`resolve_backend_choice`; callers that run the resolved
    backend should use the full choice so the selector's ``order``
    recommendation survives the trip.
    """
    return resolve_backend_choice(spec, schedule_name, backend).backend
