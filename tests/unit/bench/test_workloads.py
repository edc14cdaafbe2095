"""Unit tests for benchmark workload construction."""

from repro.bench import all_cases, make_pc, make_tj, make_vp
from repro.core import run_original
from repro.memory import AddressMap


class TestCases:
    def test_all_cases_names(self):
        names = [case.name for case in all_cases(scale=0.05)]
        assert names == ["TJ", "MM", "PC", "NN", "KNN", "VP"]

    def test_scale_shrinks_inputs(self):
        small = make_tj(100)
        spec = small.make_spec()
        assert spec.outer_root.size == 100

    def test_layout_registers_both_trees(self):
        case = make_tj(50)
        amap = AddressMap()
        case.register_layout(amap)
        assert amap.total_lines == 100

    def test_spatial_layout_sizes_leaves_by_points(self):
        case = make_pc(128, leaf_size=8)
        amap = AddressMap()
        case.register_layout(amap)
        # 2-D points, 16 bytes each: an 8-point leaf needs 1 + 2 lines.
        from repro.dualtree import build_kdtree

        assert amap.total_lines > 2 * (2 * 128 / 8)  # more than node count

    def test_fresh_spec_per_run(self):
        case = make_pc(128)
        run_original(case.make_spec())
        first = case.result()
        run_original(case.make_spec())
        assert case.result() == first

    def test_work_costs_reflect_cpi_story(self):
        # VP is compute-bound (CPI 0.93): largest weight.  PC is
        # memory-bound (CPI 6.7): small weight.
        vp, pc, tj = make_vp(128), make_pc(128), make_tj(32)
        assert vp.work_cost.instructions > pc.work_cost.instructions
        assert pc.work_cost.instructions >= tj.work_cost.instructions
