"""Unit tests for the recursive Matrix Multiplication kernel."""

import pytest

from repro.core import run_interchanged, run_original, run_twisted
from repro.kernels import MatrixMultiply, matmul_footprint
from repro.memory import AddressMap


class TestMatrixMultiply:
    def test_original_computes_product(self):
        mm = MatrixMultiply(n=16, m=12, p=5)
        run_original(mm.make_spec())
        assert mm.max_error() < 1e-12

    @pytest.mark.parametrize("run", [run_interchanged, run_twisted])
    def test_transformed_schedules_compute_product(self, run):
        mm = MatrixMultiply(n=16, m=16, p=4)
        run(mm.make_spec())
        assert mm.max_error() < 1e-12

    def test_make_spec_clears_output(self):
        mm = MatrixMultiply(n=8, m=8)
        run_original(mm.make_spec())
        spec = mm.make_spec()
        assert mm.c.sum() == 0.0
        run_original(spec)
        assert mm.max_error() < 1e-12

    def test_rectangular_output(self):
        mm = MatrixMultiply(n=5, m=9, p=3)
        run_twisted(mm.make_spec())
        assert mm.c.shape == (5, 9)
        assert mm.max_error() < 1e-12

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            MatrixMultiply(n=0, m=4)


class TestLayout:
    def test_vectors_are_multi_line_blocks(self):
        mm = MatrixMultiply(n=4, m=4, lines_per_vector=3)
        amap = AddressMap()
        mm.register_layout(amap)
        assert len(amap.lines_of(("outer", 0))) == 3
        assert amap.total_lines == (4 + 4) * 3


class TestFootprint:
    def test_unique_output_cell_written(self):
        mm = MatrixMultiply(n=4, m=4)
        touches = matmul_footprint(mm.outer_root, mm.inner_root)
        writes = [loc for loc, is_write in touches if is_write]
        assert writes == [("out", mm.outer_root.data, mm.inner_root.data)]
