"""The ``compiled`` backend: proof-gated fused traversal + kernel.

The SoA executors (:mod:`repro.core.soa_exec`) already traverse
integers, but their hot loop still pays per-block Python overhead:
every ``DEFAULT_BATCH_SIZE`` pairs the position lists cross the
interpreter into ``work_batch_soa``, which re-stages them into typed
arrays, re-resolves the payload columns through the view, and updates
captured state through attribute access.  For a spec whose TW20x
verdict is ``lowerable`` all of that is provably removable: the
traversal's emission sequence is a pure function of the (static) tree
shapes and the schedule, and the kernel is certified allocation-free
over typed gathers.

This backend exploits both facts:

* the **traversal** is evaluated once per (trees, schedule kind,
  storage order, cutoff) into two whole-run ``np.intp`` position
  arrays — original and interchange orders collapse to
  ``repeat``/``tile`` expressions, the twist order is produced by the
  same ``_run_twisted_bulk`` stack machine the SoA backend runs
  (collected instead of dispatched), so the pair sequence is
  bit-identical to the SoA backend's emission order;
* the **kernel** runs once over those arrays, as a fused artifact from
  :mod:`repro.transform.lower_codegen` (numba-jitted when numba is
  importable, generated NumPy otherwise), or — when the kernel falls
  outside the code generator's subset — as a single whole-run dispatch
  of the original ``work_batch_soa``.

One whole-run dispatch is within the ``work_batch_soa`` contract: the
kernel must be equivalent to per-pair ``work`` calls in order for *any*
block partition, so partitioning into one block is just the coarsest
legal choice.

Gating is proof-carrying: every entry point re-checks the TW20x
verdict (cached, so this is cheap) and raises
:class:`~repro.errors.ScheduleError` when the spec is not certified
``lowerable`` — ``backend="compiled"`` cannot run unproven code even
when requested explicitly.  Instrumented runs and truncating specs
delegate to the SoA executors (identical events by construction), so
``backend="sanitize"`` lockstep validation works unchanged.
"""

from __future__ import annotations

import sys
import weakref
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.core.batched import DEFAULT_BATCH_SIZE
from repro.core.instruments import NULL_INSTRUMENT, Instrument
from repro.core.soa_exec import (
    _bulk_eligible,
    _run_twisted_bulk,
    run_interchanged_soa,
    run_original_soa,
    run_twisted_soa,
)
from repro.core.spec import NestedRecursionSpec
from repro.errors import ScheduleError
from repro.spaces.soa import SoATree, soa_view
from repro.transform.lower_codegen import (
    FusedKernel,
    LoweringUnsupported,
    generate_fused_kernel,
)

__all__ = [
    "artifact_info",
    "compiled_artifact",
    "position_cache_info",
    "run_interchanged_compiled",
    "run_original_compiled",
    "run_twisted_compiled",
    "set_position_cache_limits",
]


# --------------------------------------------------------------------
# Proof gate


def _require_lowerable(spec: NestedRecursionSpec) -> None:
    """Raise unless the TW20x pass certifies ``spec`` as lowerable."""
    from repro.transform.lint.lower import LowerVerdict, lint_lower

    try:
        report = lint_lower(spec)
    except Exception as exc:
        raise ScheduleError(
            "backend='compiled' requires a TW20x 'lowerable' verdict, but "
            f"the lowerability analyzer failed on {spec.name or 'spec'}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if report.lower is not LowerVerdict.LOWERABLE:
        raise ScheduleError(
            "backend='compiled' requires a TW20x 'lowerable' verdict; "
            f"{spec.name or 'spec'} is {report.lower.value!r} "
            f"({report.lower_reason}).  Use backend='soa' or 'auto' instead."
        )


# --------------------------------------------------------------------
# Fused-artifact cache (per kernel family, not per spec instance)

_ARTIFACTS: dict = {}
#: Sentinel distinguishing "codegen declined" from "not yet tried".
_NO_ARTIFACT = object()


def compiled_artifact(spec: NestedRecursionSpec) -> Optional[FusedKernel]:
    """The fused artifact for this spec family, or None.

    ``None`` means the certified kernel falls outside the code
    generator's subset; the backend then runs the original
    ``work_batch_soa`` as a single whole-run dispatch (still fused
    traversal, still one dispatch).  Artifacts bind per call, so one
    cache entry serves every fresh spec the same benchmark produces.
    """
    from repro.transform.lint.kernel_ir import spec_cache_key

    key = spec_cache_key(spec)
    cached = _ARTIFACTS.get(key, _NO_ARTIFACT)
    if cached is not _NO_ARTIFACT:
        return cached
    try:
        artifact: Optional[FusedKernel] = generate_fused_kernel(spec.work_batch_soa)
    except LoweringUnsupported:
        artifact = None
    _ARTIFACTS[key] = artifact
    return artifact


def artifact_info(spec: NestedRecursionSpec) -> dict:
    """Diagnostic view of the compiled artifact (for bench/tests)."""
    artifact = compiled_artifact(spec)
    if artifact is None:
        return {"codegen": "fallback-dispatch", "jit": "numpy"}
    return {
        "codegen": "fused-source",
        "jit": artifact.jit,
        "jit_note": artifact.jit_note,
        "source": artifact.source,
    }


def clear_caches() -> None:
    """Drop cached artifacts and position arrays (test hook)."""
    _ARTIFACTS.clear()
    _POSITIONS.clear()


# --------------------------------------------------------------------
# Whole-run position arrays (per trees x schedule kind x order x cutoff)


class _Collector:
    """A PositionDispatcher stand-in that only accumulates."""

    __slots__ = ("_os", "_is")

    def __init__(self) -> None:
        self._os: list[int] = []
        self._is: list[int] = []

    def flush(self) -> None:  # pragma: no cover - trivially empty
        pass


_POSITIONS: "OrderedDict[tuple, tuple]" = OrderedDict()
#: Bounded twice over: each entry holds two O(mn) intp arrays, so an
#: unbounded cache across a bench sweep — or a resident service that
#: never exits — would hoard memory.  The entry cap bounds the count,
#: the byte cap bounds the footprint (a handful of large-tree entries
#: can dwarf dozens of small ones); eviction is LRU under both.
_POSITIONS_CAP = 8
_POSITIONS_MAX_BYTES = 256 * 1024 * 1024


def _positions_nbytes() -> int:
    return sum(
        rows.nbytes + cols.nbytes
        for _ref_o, _ref_i, rows, cols in _POSITIONS.values()
    )


def position_cache_info() -> dict:
    """Entry/byte usage of the position cache (for tests and stats)."""
    return {
        "entries": len(_POSITIONS),
        "bytes": _positions_nbytes(),
        "max_entries": _POSITIONS_CAP,
        "max_bytes": _POSITIONS_MAX_BYTES,
    }


def set_position_cache_limits(
    max_entries: Optional[int] = None, max_bytes: Optional[int] = None
) -> tuple[int, int]:
    """Adjust the cache bounds; returns the previous ``(max_entries, max_bytes)``.

    Limits apply on the next insertion (shrinking does not evict
    retroactively until something is cached).  Long-lived services can
    tighten these to match their memory budget.
    """
    global _POSITIONS_CAP, _POSITIONS_MAX_BYTES
    previous = (_POSITIONS_CAP, _POSITIONS_MAX_BYTES)
    if max_entries is not None:
        if max_entries < 1:
            raise ScheduleError("position cache needs max_entries >= 1")
        _POSITIONS_CAP = max_entries
    if max_bytes is not None:
        if max_bytes < 1:
            raise ScheduleError("position cache needs max_bytes >= 1")
        _POSITIONS_MAX_BYTES = max_bytes
    return previous


def _position_arrays(
    spec: NestedRecursionSpec,
    kind: str,
    order: str,
    cutoff: Optional[int] = None,
) -> tuple[SoATree, SoATree, np.ndarray, np.ndarray]:
    """(outer view, inner view, rows, cols) for one schedule kind.

    The returned arrays replay exactly the pair sequence the SoA
    backend's bulk fast path emits for the same schedule — ``original``
    and ``interchange`` are closed forms over rank space (rank space is
    pre-order, so visit order equals rank order), ``twist`` is the SoA
    stack machine itself run into a collector.
    """
    outer = soa_view(spec.outer_root, order)
    inner = soa_view(spec.inner_root, order)
    key = (id(spec.outer_root), id(spec.inner_root), kind, order, cutoff)
    hit = _POSITIONS.get(key)
    if hit is not None:
        ref_o, ref_i, rows, cols = hit
        if ref_o() is spec.outer_root and ref_i() is spec.inner_root:
            _POSITIONS.move_to_end(key)
            return outer, inner, rows, cols
        del _POSITIONS[key]
    o_pos = np.asarray(outer.rank_pos_list, dtype=np.intp)
    i_pos = np.asarray(inner.rank_pos_list, dtype=np.intp)
    n_o, n_i = outer.num_nodes, inner.num_nodes
    if kind == "original":
        # Outer pre-order, whole inner pre-order per outer node.
        rows = np.repeat(o_pos, n_i)
        cols = np.tile(i_pos, n_o)
    elif kind == "interchange":
        # Inner pre-order, whole outer pre-order per inner node.
        rows = np.tile(o_pos, n_i)
        cols = np.repeat(i_pos, n_o)
    elif kind == "twist":
        collector = _Collector()
        _run_twisted_bulk(collector, True, outer, inner, cutoff, sys.maxsize)
        rows = np.asarray(collector._os, dtype=np.intp)
        cols = np.asarray(collector._is, dtype=np.intp)
    else:  # pragma: no cover - internal misuse
        raise ScheduleError(f"unknown compiled schedule kind {kind!r}")
    _POSITIONS[key] = (
        weakref.ref(spec.outer_root),
        weakref.ref(spec.inner_root),
        rows,
        cols,
    )
    while _POSITIONS and (
        len(_POSITIONS) > _POSITIONS_CAP
        or _positions_nbytes() > _POSITIONS_MAX_BYTES
    ):
        _POSITIONS.popitem(last=False)
    return outer, inner, rows, cols


def _dispatch(
    spec: NestedRecursionSpec,
    outer: SoATree,
    inner: SoATree,
    rows: np.ndarray,
    cols: np.ndarray,
) -> None:
    """Run the whole cross product in one fused (or direct) dispatch."""
    artifact = compiled_artifact(spec)
    if artifact is not None:
        artifact.call(spec.work_batch_soa, outer, inner, rows, cols)
    else:
        spec.work_batch_soa(outer, inner, rows, cols)


# --------------------------------------------------------------------
# Entry points (signatures mirror the SoA runners)


def run_original_compiled(
    spec: NestedRecursionSpec,
    instrument: Optional[Instrument] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    order: str = "preorder",
) -> None:
    """Compiled counterpart of :func:`repro.core.soa_exec.run_original_soa`."""
    _require_lowerable(spec)
    ins = instrument or NULL_INSTRUMENT
    if not _bulk_eligible(spec, ins):
        # Instrumented (or truncating) runs delegate to the SoA
        # executor: identical events, identical results, and the
        # sanitize lockstep phases stay meaningful.
        run_original_soa(
            spec, instrument=instrument, batch_size=batch_size, order=order
        )
        return
    outer, inner, rows, cols = _position_arrays(spec, "original", order)
    _dispatch(spec, outer, inner, rows, cols)


def run_interchanged_compiled(
    spec: NestedRecursionSpec,
    instrument: Optional[Instrument] = None,
    use_counters: bool = False,
    subtree_truncation: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
    order: str = "preorder",
) -> None:
    """Compiled counterpart of :func:`repro.core.soa_exec.run_interchanged_soa`."""
    _require_lowerable(spec)
    ins = instrument or NULL_INSTRUMENT
    if not _bulk_eligible(spec, ins):
        run_interchanged_soa(
            spec,
            instrument=instrument,
            use_counters=use_counters,
            subtree_truncation=subtree_truncation,
            batch_size=batch_size,
            order=order,
        )
        return
    outer, inner, rows, cols = _position_arrays(spec, "interchange", order)
    _dispatch(spec, outer, inner, rows, cols)


def run_twisted_compiled(
    spec: NestedRecursionSpec,
    instrument: Optional[Instrument] = None,
    cutoff: Optional[int] = None,
    use_counters: bool = False,
    subtree_truncation: bool = True,
    batch_size: int = DEFAULT_BATCH_SIZE,
    order: str = "preorder",
) -> None:
    """Compiled counterpart of :func:`repro.core.soa_exec.run_twisted_soa`."""
    _require_lowerable(spec)
    ins = instrument or NULL_INSTRUMENT
    if not _bulk_eligible(spec, ins):
        run_twisted_soa(
            spec,
            instrument=instrument,
            cutoff=cutoff,
            use_counters=use_counters,
            subtree_truncation=subtree_truncation,
            batch_size=batch_size,
            order=order,
        )
        return
    outer, inner, rows, cols = _position_arrays(spec, "twist", order, cutoff)
    _dispatch(spec, outer, inner, rows, cols)
