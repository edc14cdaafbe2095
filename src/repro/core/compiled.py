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

* the **traversal** is never materialized as whole-run ``np.intp``
  arrays.  Original and interchange orders are streamed in blocks of
  :data:`BLOCK_PAIRS` pairs straight from their closed
  ``repeat``/``tile`` forms over rank space, and nothing is cached for
  them.  The twist order is produced by the same ``_run_twisted_bulk``
  stack machine the SoA backend runs (collected instead of
  dispatched), filled once per (trees, storage order, cutoff) into a
  preallocated pair of the narrowest unsigned arrays that hold the
  layout positions (``uint16`` up to 65 536 nodes, ``uint32`` beyond),
  and cached; either way the pair sequence is bit-identical to the SoA
  backend's emission order;
* the **kernel** is dispatched once per block, as a fused artifact
  from :mod:`repro.transform.lower_codegen` (numba-jitted when numba
  is importable, generated NumPy otherwise), or — when the kernel
  falls outside the code generator's subset — as the original
  ``work_batch_soa``.  Every block reaches it as ``np.intp`` arrays,
  so the numba leg compiles one signature.

Per-block dispatch is within the ``work_batch_soa`` contract: the
kernel must be equivalent to per-pair ``work`` calls in order for *any*
block partition.  A block's two position arrays take 1 MB, so a run's
temporaries stay bounded whatever the iteration-space size.

Gating is proof-carrying: every entry point re-checks the TW20x
verdict (cached, so this is cheap) and raises
:class:`~repro.errors.ScheduleError` when the spec is not certified
``lowerable`` — ``backend="compiled"`` cannot run unproven code even
when requested explicitly.  Instrumented runs and truncating specs
delegate to the SoA executors (identical events by construction), so
``backend="sanitize"`` lockstep validation works unchanged.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Iterator, Optional

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
    "BLOCK_PAIRS",
    "artifact_info",
    "compiled_artifact",
    "position_cache_info",
    "run_interchanged_compiled",
    "run_original_compiled",
    "run_twisted_compiled",
    "set_position_cache_limits",
]

#: Pairs per kernel dispatch.  Large enough that the per-block Python
#: (one counted ``repeat``, one slice, one fused call) vanishes against
#: the gathers; small enough that a block's positions and gathered
#: payloads stay at 512 KB per array.
BLOCK_PAIRS = 1 << 16

#: Largest node count whose layout positions fit ``uint16``; bigger
#: trees cache their twist sequence as ``uint32``.
UINT16_MAX_NODES = 1 << 16


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
    generator's subset; the backend then dispatches the original
    ``work_batch_soa`` per block (still fused traversal, no per-pair
    Python).  Artifacts bind per call, so one cache entry serves every
    fresh spec the same benchmark produces.
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
    """Drop cached artifacts and twist sequences (test hook)."""
    _ARTIFACTS.clear()
    _POSITIONS.clear()


# --------------------------------------------------------------------
# Position blocks: streamed closed forms, cached narrow twist sequences


def _closed_form_blocks(
    major: np.ndarray, minor: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(repeat(major, m), tile(minor, n))`` cut into fixed blocks.

    The cross product with ``minor`` varying fastest, yielded as
    ``(major block, minor block)`` pairs of at most
    :data:`BLOCK_PAIRS` entries.  A block's major side is one counted
    ``repeat`` over the major nodes it touches; its minor side is a
    view into a single tiled copy of ``minor`` long enough for any
    block offset.  Nothing outlives the run.
    """
    block = BLOCK_PAIRS
    n_minor = len(minor)
    total = len(major) * n_minor
    tiled = np.tile(minor, -(-(block + n_minor - 1) // n_minor))
    for start in range(0, total, block):
        stop = min(start + block, total)
        first, offset = divmod(start, n_minor)
        last = (stop - 1) // n_minor + 1
        counts = np.full(last - first, n_minor, dtype=np.intp)
        counts[0] -= offset
        counts[-1] -= last * n_minor - stop
        yield (
            np.repeat(major[first:last], counts),
            tiled[offset : offset + stop - start],
        )


def _narrow_blocks(
    rows: np.ndarray, cols: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A cached narrow sequence, widened to ``np.intp`` block by block."""
    block = BLOCK_PAIRS
    for start in range(0, len(rows), block):
        yield (
            rows[start : start + block].astype(np.intp),
            cols[start : start + block].astype(np.intp),
        )


def _position_dtype(num_nodes: int) -> type:
    """The narrowest unsigned dtype holding positions ``0..num_nodes-1``."""
    return np.uint16 if num_nodes <= UINT16_MAX_NODES else np.uint32


class _Filler:
    """A PositionDispatcher stand-in that copies into preallocated arrays."""

    __slots__ = ("_os", "_is", "rows", "cols", "filled")

    def __init__(self, rows: np.ndarray, cols: np.ndarray) -> None:
        self._os: list[int] = []
        self._is: list[int] = []
        self.rows = rows
        self.cols = cols
        self.filled = 0

    def flush(self) -> None:
        end = self.filled + len(self._os)
        if end > len(self.rows):
            raise ScheduleError(
                f"twist emitted more than the {len(self.rows)} pairs of "
                "its iteration space"
            )
        self.rows[self.filled : end] = self._os
        self.cols[self.filled : end] = self._is
        self.filled = end
        del self._os[:]
        del self._is[:]


def _twist_sequence(
    outer: SoATree, inner: SoATree, cutoff: Optional[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Run the SoA twist stack machine once into narrow arrays."""
    total = outer.num_nodes * inner.num_nodes
    filler = _Filler(
        np.empty(total, dtype=_position_dtype(outer.num_nodes)),
        np.empty(total, dtype=_position_dtype(inner.num_nodes)),
    )
    _run_twisted_bulk(filler, True, outer, inner, cutoff, BLOCK_PAIRS)
    if filler.filled != total:
        raise ScheduleError(
            f"twist emitted {filler.filled} pairs, but its iteration "
            f"space has {total}"
        )
    return filler.rows, filler.cols


_POSITIONS: "OrderedDict[tuple, tuple]" = OrderedDict()
#: Twist sequences only (the closed-form orders are streamed).  Bounded
#: twice over: the entry cap bounds the count, the byte cap the
#: footprint (a handful of large-tree entries can dwarf dozens of small
#: ones) — a bench sweep or a resident service must not hoard memory.
#: Eviction is LRU under both.
_POSITIONS_CAP = 8
_POSITIONS_MAX_BYTES = 256 * 1024 * 1024


def _positions_nbytes() -> int:
    return sum(
        rows.nbytes + cols.nbytes
        for _ref_o, _ref_i, rows, cols in _POSITIONS.values()
    )


def position_cache_info() -> dict:
    """Entry/byte usage of the twist-sequence cache (for tests and stats)."""
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


def _cached_twist(
    spec: NestedRecursionSpec,
    outer: SoATree,
    inner: SoATree,
    order: str,
    cutoff: Optional[int],
) -> tuple[np.ndarray, np.ndarray]:
    """The narrow twist sequence for these live trees, generated on a miss."""
    key = (id(spec.outer_root), id(spec.inner_root), order, cutoff)
    hit = _POSITIONS.get(key)
    if hit is not None:
        ref_o, ref_i, rows, cols = hit
        if ref_o() is spec.outer_root and ref_i() is spec.inner_root:
            _POSITIONS.move_to_end(key)
            return rows, cols
        del _POSITIONS[key]
    rows, cols = _twist_sequence(outer, inner, cutoff)
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
    return rows, cols


def _position_arrays(
    spec: NestedRecursionSpec,
    kind: str,
    order: str,
    cutoff: Optional[int] = None,
) -> tuple[SoATree, SoATree, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """(outer view, inner view, ``np.intp`` position blocks) for one kind.

    The blocks replay exactly the pair sequence the SoA backend's bulk
    fast path emits for the same schedule — ``original`` and
    ``interchange`` are closed forms over rank space (rank space is
    pre-order, so visit order equals rank order) streamed lazily,
    ``twist`` is the SoA stack machine itself, run into the narrow
    cache here on a miss and widened per block.
    """
    outer = soa_view(spec.outer_root, order)
    inner = soa_view(spec.inner_root, order)
    o_pos = np.asarray(outer.rank_pos, dtype=np.intp)
    i_pos = np.asarray(inner.rank_pos, dtype=np.intp)
    if kind == "original":
        # Outer pre-order, whole inner pre-order per outer node.
        blocks = _closed_form_blocks(o_pos, i_pos)
    elif kind == "interchange":
        # Inner pre-order, whole outer pre-order per inner node.
        blocks = (
            (rows, cols) for cols, rows in _closed_form_blocks(i_pos, o_pos)
        )
    elif kind == "twist":
        blocks = _narrow_blocks(*_cached_twist(spec, outer, inner, order, cutoff))
    else:  # pragma: no cover - internal misuse
        raise ScheduleError(f"unknown compiled schedule kind {kind!r}")
    return outer, inner, blocks


def _dispatch(
    spec: NestedRecursionSpec,
    outer: SoATree,
    inner: SoATree,
    blocks: Iterator[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Run the cross product block by block through one fused artifact."""
    artifact = compiled_artifact(spec)
    kernel = spec.work_batch_soa
    for rows, cols in blocks:
        if artifact is not None:
            artifact.call(kernel, outer, inner, rows, cols)
        else:
            kernel(outer, inner, rows, cols)


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
    _dispatch(spec, *_position_arrays(spec, "original", order))


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
    _dispatch(spec, *_position_arrays(spec, "interchange", order))


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
    _dispatch(spec, *_position_arrays(spec, "twist", order, cutoff))
