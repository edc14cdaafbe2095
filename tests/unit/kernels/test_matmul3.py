"""Unit tests for three-level matrix-matrix multiplication."""

import pytest

from repro.core import run_original_n, run_twisted_n
from repro.kernels import MatMul3, MatMul3CacheProbe
from repro.memory.hierarchy import CacheHierarchy, LevelSpec


class TestCorrectness:
    def test_original_computes_product(self):
        mmm = MatMul3(n=6, m=5, p=4)
        run_original_n(mmm.make_spec())
        assert mmm.max_error() < 1e-12

    def test_twisted_computes_product(self):
        mmm = MatMul3(n=6, m=5, p=4)
        run_twisted_n(mmm.make_spec())
        assert mmm.max_error() < 1e-12

    def test_square_larger(self):
        mmm = MatMul3(n=16, m=16, p=16)
        run_twisted_n(mmm.make_spec())
        assert mmm.max_error() < 1e-12

    def test_make_spec_resets_output(self):
        mmm = MatMul3(n=4, m=4, p=4)
        run_original_n(mmm.make_spec())
        run_twisted_n(mmm.make_spec())  # second run must not double C
        assert mmm.max_error() < 1e-12

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            MatMul3(n=0, m=3, p=3)


class TestCacheProbe:
    def machine(self):
        return CacheHierarchy(
            [
                LevelSpec("L1", 8, ways=8).build(),
                LevelSpec("L2", 64, ways=8).build(),
            ]
        )

    def test_three_accesses_per_point(self):
        mmm = MatMul3(n=4, m=4, p=4)
        probe = MatMul3CacheProbe(mmm, self.machine())
        run_original_n(mmm.make_spec(), instrument=probe)
        assert probe.accesses == 3 * 4 * 4 * 4

    def test_arrays_in_disjoint_regions(self):
        mmm = MatMul3(n=8, m=8, p=8)
        probe = MatMul3CacheProbe(mmm, self.machine())
        assert probe._a_base < probe._b_base < probe._c_base

    def test_twisting_reduces_misses(self):
        # The Section 7.2 motivation: three-level twisting blocks MMM
        # for cache, parameter-free.
        mmm = MatMul3(n=24, m=24, p=24)

        def misses(run):
            machine = self.machine()
            probe = MatMul3CacheProbe(mmm, machine)
            run(mmm.make_spec(), instrument=probe)
            assert mmm.max_error() < 1e-12
            return machine.levels[1].stats.misses

        baseline = misses(run_original_n)
        twisted = misses(run_twisted_n)
        assert twisted < baseline / 2
