"""Unit tests for the kernel IR extractor and its per-family cache."""

import dataclasses
import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.transform.lint import kernel_ir
from repro.transform.lint.kernel_ir import (
    AFFINE,
    CELL_ROOT,
    GATHER,
    MASK,
    NODE_ROOT,
    SLICE,
    UNKNOWN,
    extract_kernel_ir,
)

OUT = np.zeros((16, 16))
TABLE = np.arange(64, dtype=np.float64)


def soa_ir(fn):
    return extract_kernel_ir(fn, "work_batch_soa")


def writes_of(ir):
    return [a for a in ir.array_accesses if a.is_write]


class TestAffineTracking:
    def test_positions_are_affine_rank_vectors(self):
        def kernel(o_view, i_view, o_positions, i_positions):
            rows = np.fromiter(o_positions, dtype=np.intp, count=len(o_positions))
            OUT[rows, 0] = 1.0

        ir = soa_ir(kernel)
        (write,) = writes_of(ir)
        assert write.array == "OUT"
        assert write.dims[0].kind == AFFINE
        assert write.dims[0].axis == "outer"
        assert write.dims[0].coeff == 1
        assert write.dims[0].const == 0

    def test_affine_arithmetic_keeps_coefficients(self):
        def kernel(o_view, i_view, o_positions, i_positions):
            rows = np.asarray(o_positions)
            OUT[2 * rows + 3, 0] = 1.0

        ir = soa_ir(kernel)
        (write,) = writes_of(ir)
        assert write.dims[0].kind == AFFINE
        assert (write.dims[0].coeff, write.dims[0].const) == (2, 3)

    def test_rank_times_rank_goes_nonaffine(self):
        def kernel(o_view, i_view, o_positions, i_positions):
            rows = np.asarray(o_positions)
            OUT[rows * rows, 0] = 1.0

        ir = soa_ir(kernel)
        (write,) = writes_of(ir)
        assert write.dims[0].kind == UNKNOWN
        assert "rank" in write.dims[0].detail

    def test_modulo_goes_nonaffine(self):
        def kernel(o_view, i_view, o_positions, i_positions):
            rows = np.asarray(o_positions)
            OUT[rows % 4, 0] = 1.0

        ir = soa_ir(kernel)
        (write,) = writes_of(ir)
        assert write.dims[0].kind == UNKNOWN


class TestGathers:
    def test_column_gather_through_affine_index(self):
        def kernel(o_view, i_view, o_positions, i_positions):
            rows = np.asarray(o_positions)
            vals = o_view.column("data")[rows]
            OUT[vals, 0] = 1.0

        ir = soa_ir(kernel)
        write = next(a for a in writes_of(ir) if a.array == "OUT")
        assert write.dims[0].kind == GATHER
        assert write.dims[0].axis == "outer"
        assert write.dims[0].column == "data"
        # The column read itself is recorded as an affine access.
        read = next(a for a in ir.array_accesses if a.array == "outer.data")
        assert read.dims[0].kind == AFFINE

    def test_node_attribute_is_a_gather(self):
        def kernel(o, i):
            OUT[o.data, i.data] = 1.0

        ir = extract_kernel_ir(kernel, "work")
        (write,) = writes_of(ir)
        assert [d.kind for d in write.dims] == [GATHER, GATHER]
        assert [d.axis for d in write.dims] == ["outer", "inner"]
        assert ("outer", "data") in ir.attr_reads
        assert ("inner", "data") in ir.attr_reads

    def test_gather_plus_constant_stays_a_gather(self):
        def kernel(o, i):
            OUT[o.data + 1, 0] = 1.0

        ir = extract_kernel_ir(kernel, "work")
        (write,) = writes_of(ir)
        assert write.dims[0].kind == GATHER
        assert write.dims[0].column == "data"


class TestObjectAndAllocationFacts:
    def test_dict_subscript_is_an_object_use(self):
        lookup = {}

        def kernel(o_view, i_view, o_positions, i_positions):
            lookup[len(o_positions)] = 1

        ir = soa_ir(kernel)
        assert any("lookup" in use.what for use in ir.object_uses)

    def test_list_literal_is_an_allocation(self):
        def kernel(o_view, i_view, o_positions, i_positions):
            staged = [float(p) for p in o_positions]
            return staged

        ir = soa_ir(kernel)
        assert any(a.kind == "list" for a in ir.allocations)

    def test_ndarray_alloc_inside_loop_is_flagged_in_loop(self):
        def kernel(o_view, i_view, o_positions, i_positions):
            for _ in range(2):
                scratch = np.zeros(4)
            return scratch

        ir = soa_ir(kernel)
        alloc = next(a for a in ir.allocations if a.kind == "ndarray")
        assert alloc.in_loop

    def test_fresh_alloc_writes_carry_the_fresh_label(self):
        def kernel(o_view, i_view, o_positions, i_positions):
            scratch = np.zeros(8)
            scratch[:] = 1.0

        ir = soa_ir(kernel)
        (write,) = writes_of(ir)
        assert write.array.startswith("<fresh")

    def test_nested_def_is_an_object_use(self):
        def kernel(o_view, i_view, o_positions, i_positions):
            def helper():
                return 1

            return helper()

        ir = soa_ir(kernel)
        assert any("nested function" in use.what for use in ir.object_uses)


class TestStateAndReductions:
    class Acc:
        def __init__(self):
            self.total = 0.0
            self.trace = []

    def test_augmented_add_is_a_reduction(self):
        acc = self.Acc()

        def kernel(o, i):
            acc.total += float(o.data * i.data)

        ir = extract_kernel_ir(kernel, "work")
        (write,) = ir.state_writes()
        assert write.label == "acc.total"
        assert write.reduction

    def test_plain_assign_is_not_a_reduction(self):
        acc = self.Acc()

        def kernel(o, i):
            acc.total = float(o.data) - acc.total

        ir = extract_kernel_ir(kernel, "work")
        (write,) = ir.state_writes()
        assert not write.reduction

    def test_subtract_augassign_is_not_a_reduction(self):
        acc = self.Acc()

        def kernel(o, i):
            acc.total -= float(o.data)

        ir = extract_kernel_ir(kernel, "work")
        (write,) = ir.state_writes()
        assert not write.reduction

    def test_non_numeric_state_field_is_untyped(self):
        acc = self.Acc()

        def kernel(o, i):
            acc.trace = o

        ir = extract_kernel_ir(kernel, "work")
        (write,) = ir.state_writes()
        assert not write.typed


class TestMiscFacts:
    def test_mask_index_is_a_dynamic_shape(self):
        def kernel(o_view, i_view, o_positions, i_positions):
            hot = TABLE[TABLE > 3.0]
            return hot

        ir = soa_ir(kernel)
        assert ir.dynamic_shapes
        read = next(a for a in ir.array_accesses if a.array == "TABLE")
        assert read.dims[0].kind == MASK

    def test_slice_read_is_recorded(self):
        def kernel(o, i):
            return float(TABLE[:4].sum())

        ir = extract_kernel_ir(kernel, "work")
        read = next(a for a in ir.array_accesses if a.array == "TABLE")
        assert read.dims[0].kind == SLICE

    def test_unknown_call_is_a_helper_record(self):
        import collections

        def kernel(o, i):
            return collections.Counter()

        ir = extract_kernel_ir(kernel, "work")
        assert any("Counter" in h.name for h in ir.unknown_helpers)

    def test_node_field_writes_record_the_axis(self):
        def kernel(o, i):
            o.score = 1.0
            i.score = 2.0

        ir = extract_kernel_ir(kernel, "work")
        axes = {w.axis for w in ir.node_writes}
        assert axes == {"outer", "inner"}

    def test_tuple_unpacking_binds_kinds(self):
        def kernel(o, i):
            row, col = o.data, i.data
            OUT[row, col] = 1.0

        ir = extract_kernel_ir(kernel, "work")
        (write,) = writes_of(ir)
        assert [d.axis for d in write.dims] == ["outer", "inner"]

    def test_builtin_kernel_is_unanalyzable(self):
        ir = extract_kernel_ir(len, "work")
        assert not ir.analyzable

    def test_unknown_role_is_a_programming_error(self):
        with pytest.raises(ValueError, match="role"):
            extract_kernel_ir(lambda o, i: None, "nope")

    def test_json_summary_has_stable_keys(self):
        def kernel(o, i):
            OUT[o.data, i.data] = 1.0

        payload = extract_kernel_ir(kernel, "work").to_json()
        assert payload["role"] == "work"
        assert payload["analyzable"] is True
        assert any("gather" in line for line in payload["array_accesses"])


# ---------------------------------------------------------------------------
# Conformance facts (the TW1xx passes compare these across kernels)


def _staged_copy(values):
    return values


_staged_copy.__conformance_staged__ = True


class _Rules:
    def __init__(self):
        self.total = 0.0
        self.scale = 2.0

    def add(self, o, i):
        self.total += o.data * self.scale


class TestConformanceFacts:
    def test_state_is_keyed_by_live_identity(self):
        """``acc`` in a closure and ``self`` in a bound method of the
        same object name the same location."""
        rules = _Rules()
        acc = rules

        def work(o, i):
            acc.total += o.data

        closure = extract_kernel_ir(work, "work").conformance
        method = extract_kernel_ir(rules.add, "work").conformance
        assert closure.write_keys() == method.write_keys() == {
            (id(rules), "total")
        }
        assert (id(rules), "scale") in method.state_reads()

    def test_writes_carry_reduction_and_loop_flags(self):
        acc = _Rules()

        def work_batch(os, is_):
            acc.scale = len(os)
            for o in os:
                acc.total += o.data

        effects = [
            e for e in extract_kernel_ir(work_batch, "work_batch").conformance.effects
            if e.is_write
        ]
        by_field = {e.field: e for e in effects}
        assert not by_field["scale"].in_loop and not by_field["scale"].reduction
        assert by_field["total"].in_loop and by_field["total"].reduction

    def test_block_escapes_and_rebinds(self):
        acc = _Rules()
        calls = 0

        def work_batch(os, is_):
            nonlocal calls
            calls += 1
            acc.last = os
            is_.clear()

        facts = extract_kernel_ir(work_batch, "work_batch").conformance
        assert [name for name, _line in facts.rebinds] == ["calls"]
        assert (CELL_ROOT, "calls") in facts.write_keys()
        escapes = " | ".join(what for what, _line in facts.block_escapes)
        assert "retains block argument 'os'" in escapes
        assert ".clear()" in escapes

    def test_staged_arguments_are_not_state_reads(self):
        from repro.dualtree import batch

        acc = _Rules()

        def opaque_helper(os, is_):
            acc.total += _staged_copy(acc.scale)

        def followed_helper(os, is_):
            # A repro helper the typed walk enters: its marker still
            # summarizes it for the conformance facts.
            acc.total += batch.leaf_blocks(acc.scale)

        for kernel, helper in (
            (opaque_helper, "_staged_copy"),
            (followed_helper, "leaf_blocks"),
        ):
            facts = extract_kernel_ir(kernel, "work_batch").conformance
            assert facts.staged_helpers == {helper}
            assert (id(acc), "scale") not in facts.state_reads()
            assert (id(acc), "total") in facts.state_reads()

    def test_soa_columns_and_node_writes(self):
        def work_batch_soa(o_view, i_view, o_positions, i_positions):
            o_view.column("weight")

        def work(o, i):
            o.data = i.size

        soa = extract_kernel_ir(work_batch_soa, "work_batch_soa").conformance
        scalar = extract_kernel_ir(work, "work").conformance
        assert soa.node_reads == {"weight"}
        assert scalar.node_reads == {"size"}
        assert scalar.write_keys() == {(NODE_ROOT, "")}

    def test_fresh_list_of_nodes_reads_node_fields(self):
        acc = _Rules()

        def work_batch(os, is_):
            picked = []
            for o in os:
                picked.append(o)
            for q in picked:
                acc.total += q.weight

        facts = extract_kernel_ir(work_batch, "work_batch").conformance
        assert facts.node_reads == {"weight"}

    def test_unknown_helper_is_opaque(self):
        def work_batch(os, is_):
            print(len(os))

        facts = extract_kernel_ir(work_batch, "work_batch").conformance
        assert [h.name for h in facts.opaque_calls] == ["print"]


# ---------------------------------------------------------------------------
# One extraction per kernel family, shared by every spec-level pass


def _lint_all(spec):
    from repro.transform.lint.backend import lint_spec
    from repro.transform.lint.locality import lint_locality
    from repro.transform.lint.lower import lint_lower

    lint_spec(spec)
    lint_lower(spec)
    lint_locality(spec)


@pytest.fixture
def extractions(monkeypatch):
    """Count ``extract_kernel_ir`` calls per role, on a cold cache."""
    from repro.transform.lint import backend, locality, lower

    for module in (backend, lower, locality):
        module.clear_cache()
    counts: Counter = Counter()
    real = kernel_ir.extract_kernel_ir

    def counting(fn, role):
        counts[role] += 1
        return real(fn, role)

    monkeypatch.setattr(kernel_ir, "extract_kernel_ir", counting)
    yield counts
    for module in (backend, lower, locality):
        module.clear_cache()


def _pc_spec():
    from repro.bench.workloads import make_pc

    return make_pc(256).make_spec()


class TestSharedExtraction:
    def test_one_extraction_per_role_across_all_passes(self, extractions):
        spec = _pc_spec()
        _lint_all(spec)
        roles = {
            role for role in kernel_ir.SPEC_ROLES if getattr(spec, role) is not None
        }
        assert roles == {
            "work", "work_batch", "truncate_inner2", "truncate_inner2_batch"
        }
        assert extractions == Counter({role: 1 for role in roles})

    def test_task_spec_over_another_root_extracts_nothing(self, extractions):
        spec = _pc_spec()
        _lint_all(spec)
        extractions.clear()
        task = dataclasses.replace(spec, outer_root=spec.outer_root.children[0])
        _lint_all(task)
        assert extractions == Counter()

    def test_clear_cache_extracts_afresh(self, extractions):
        from repro.transform.lint import backend, locality, lower

        spec = _pc_spec()
        _lint_all(spec)
        extractions.clear()
        _lint_all(spec)
        assert extractions == Counter()
        for module in (backend, lower, locality):
            extractions.clear()
            module.clear_cache()
            _lint_all(spec)
            assert extractions["work"] == 1, module.__name__


class TestNoLiveObjectsRetained:
    def test_outer_root_dies_with_the_spec(self):
        from repro.bench.workloads import make_pc

        case = make_pc(512)
        spec = case.make_spec()
        root = weakref.ref(spec.outer_root)
        _lint_all(spec)
        del spec, case
        gc.collect()
        assert root() is None
