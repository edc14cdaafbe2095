"""Integration tests: the paper's locality claims hold on the simulator.

Qualitative shape assertions — who wins and in which regime — from
Sections 2.2, 3.2, and 6.2.  These run at reduced scale so the full
suite stays fast; the bench harness reruns them at full scale.
"""

from repro.bench import bench_hierarchy, make_pc, make_tj, run_case
from repro.core import ReuseDistanceProbe, run_original, run_twisted
from repro.core.schedules import INTERCHANGE, ORIGINAL, TWIST
from repro.kernels import TreeJoin
from repro.memory import instruction_overhead, speedup


class TestSection22InterchangeAsymmetry:
    def test_interchange_helps_iff_outer_tree_is_smaller(self):
        # "if the trees are sized so that the outer tree can fit in
        # cache while the inner tree cannot ... the interchanged code
        # ... will have good locality while the original code will not."
        small, large = 40, 600  # vs L3 = 512 lines

        def counters(outer_nodes, inner_nodes, schedule):
            case = make_tj(1)  # placeholder; build TJ manually
            tj = TreeJoin(outer_nodes, inner_nodes)
            from repro.bench.workloads import BenchmarkCase
            from repro.memory import AddressMap, layout_tree
            from repro.memory.costmodel import WorkCost

            def register(amap):
                layout_tree(amap, tj.outer_root, "outer")
                layout_tree(amap, tj.inner_root, "inner")

            case = BenchmarkCase(
                name="TJ*", make_spec=tj.make_spec, register_layout=register,
                work_cost=WorkCost(2.0), result=lambda: tj.result,
            )
            return run_case(case, schedule, bench_hierarchy)

        # Absolute L3 miss counts: local rates are misleading at small
        # scale (an idle L3 sees only compulsory misses, rate ~1.0 —
        # the paper notes the same artifact in Figure 9).
        # Small outer, large inner: interchange wins.
        base = counters(small, large, ORIGINAL)
        swapped = counters(small, large, INTERCHANGE)
        assert swapped.levels["L3"].misses < base.levels["L3"].misses / 4
        # Large outer, small inner: original already good; interchange hurts.
        base2 = counters(large, small, ORIGINAL)
        swapped2 = counters(large, small, INTERCHANGE)
        assert swapped2.levels["L3"].misses > 4 * base2.levels["L3"].misses


class TestSection32TwistingLocality:
    def test_twisting_beats_both_on_equal_large_trees(self):
        case = make_tj(700)  # both trees exceed L3
        base = run_case(case, ORIGINAL, bench_hierarchy)
        swapped = run_case(case, INTERCHANGE, bench_hierarchy)
        twisted = run_case(case, TWIST, bench_hierarchy)
        # Interchange is ineffective on equal trees...
        assert abs(swapped.cycles - base.cycles) / base.cycles < 0.25
        # ...but twisting wins decisively.
        assert speedup(base, twisted) > 2.0
        assert twisted.miss_rate("L3") < base.miss_rate("L3") / 2

    def test_mean_reuse_distance_drops(self):
        tj = TreeJoin(256, 256)
        original, twisted = ReuseDistanceProbe(), ReuseDistanceProbe()
        run_original(tj.make_spec(), instrument=original)
        run_twisted(tj.make_spec(), instrument=twisted)
        assert (
            twisted.analyzer.mean_finite_distance()
            < original.analyzer.mean_finite_distance() / 3
        )

    def test_twisting_targets_all_cache_levels(self):
        # The parameterless claim: L1, L2 AND L3 miss rates all improve.
        case = make_tj(700)
        base = run_case(case, ORIGINAL, bench_hierarchy)
        twisted = run_case(case, TWIST, bench_hierarchy)
        for level in ("L1", "L2", "L3"):
            assert twisted.miss_rate(level) < base.miss_rate(level), level


class TestSection62OverheadStory:
    def test_twisting_adds_instruction_overhead(self):
        case = make_pc(512)
        base = run_case(case, ORIGINAL, bench_hierarchy)
        twisted = run_case(case, TWIST, bench_hierarchy)
        overhead = instruction_overhead(base, twisted)
        assert overhead > 0.0  # twisting is never free

    def test_small_inputs_see_no_speedup(self):
        # The Figure 9 left edge: everything fits in cache, so the
        # overhead dominates and twisting loses.
        case = make_pc(128)
        base = run_case(case, ORIGINAL, bench_hierarchy)
        twisted = run_case(case, TWIST, bench_hierarchy)
        # Fits in cache: almost no accesses reach memory...
        assert base.memory_accesses < 0.1 * base.accesses
        # ...so twisting has nothing to win and its overhead dominates.
        assert speedup(base, twisted) < 1.1
