"""Unit tests for reuse-profile comparison."""

import pytest

from repro.analysis import compare_profiles, dominance, working_set_fraction
from repro.core import NestedRecursionSpec
from repro.core.schedules import INTERCHANGE, ORIGINAL, TWIST
from repro.memory.reuse import ReuseDistanceAnalyzer
from repro.spaces import balanced_tree


def spec_factory():
    return NestedRecursionSpec(balanced_tree(127), balanced_tree(127))


@pytest.fixture(scope="module")
def profiles():
    return compare_profiles(spec_factory, [ORIGINAL, INTERCHANGE, TWIST])


class TestReuseProfile:
    def test_counts_all_accesses(self, profiles):
        assert profiles["original"].num_accesses == 2 * 127 * 127

    def test_compare_keys_by_schedule_name(self, profiles):
        assert set(profiles) == {"original", "interchange", "twist"}


class TestDominance:
    def test_twist_dominates_beyond_the_smallest_distances(self, profiles):
        # The paper's caveat: twisting is "not uniform" — it gives up a
        # few O(1) outer reuses (distances 2-4) and wins everywhere
        # else.  Assert exactly that structure.
        report = dominance(profiles["twist"], profiles["original"], 512)
        assert report.dominance_fraction >= 0.7
        # Better-or-equal at every mid-range size, strictly better for
        # the cache-interesting band (at the top end both CDFs saturate
        # near 1.0 and meet).
        for distance, a, b in zip(report.distances, report.first, report.second):
            if distance >= 8:
                assert a >= b, distance
            if 8 <= distance <= 128:
                assert a > b, distance

    def test_interchange_does_not_dominate(self, profiles):
        # Interchange just moves the bad half: no dominance either way
        # would be ideal, but at minimum it must not dominate original
        # the way twisting does at every sampled size.
        up = dominance(profiles["interchange"], profiles["original"], 512)
        down = dominance(profiles["original"], profiles["interchange"], 512)
        assert min(up.dominance_fraction, down.dominance_fraction) > 0.4

    def test_report_shape(self, profiles):
        report = dominance(profiles["twist"], profiles["original"], 64)
        assert report.distances == [1, 2, 4, 8, 16, 32, 64]
        assert len(report.first) == len(report.second) == 7

    def test_empty_dominance(self):
        a, b = ReuseDistanceAnalyzer(), ReuseDistanceAnalyzer()
        assert dominance(a, b, 0).dominance_fraction == 0.0


class TestWorkingSet:
    def test_predicted_hit_rate_matches_theorem(self, profiles):
        analyzer = profiles["original"]
        # Compare against a real fully associative simulation.
        from repro.core import ReuseDistanceProbe
        from repro.core.instruments import CacheProbe
        from repro.memory import AddressMap, layout_tree
        from repro.memory.cache import fully_associative
        from repro.memory.hierarchy import CacheHierarchy

        spec = spec_factory()
        amap = AddressMap()
        layout_tree(amap, spec.outer_root, "outer")
        layout_tree(amap, spec.inner_root, "inner")
        machine = CacheHierarchy([fully_associative(64, "L")])
        probe = CacheProbe(amap, machine)
        ORIGINAL.run(spec, instrument=probe)
        simulated_hit_rate = machine.levels[0].stats.hit_rate
        predicted = working_set_fraction(analyzer, 64)
        assert predicted == pytest.approx(simulated_hit_rate, abs=1e-9)

    def test_degenerate_cache(self, profiles):
        assert working_set_fraction(profiles["original"], 0) == 0.0
