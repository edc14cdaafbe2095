"""Unit tests for the range-search extension rules."""

import pytest

from repro.core import run_interchanged, run_original, run_twisted
from repro.dualtree import RangeSearch, RangeSearchRules, brute_range_search
from repro.spaces import clustered_points


@pytest.fixture
def data():
    queries = clustered_points(120, seed=50)
    references = clustered_points(140, seed=51)
    return queries, references


class TestCorrectness:
    def test_matches_brute_force(self, data):
        queries, references = data
        rs = RangeSearch(queries, references, radius=0.08)
        run_original(rs.make_spec())
        expected = brute_range_search(queries, references, 0.08)
        assert [set(hits) for hits in rs.result] == expected

    @pytest.mark.parametrize("run", [run_interchanged, run_twisted])
    def test_transformed_schedules_match(self, run, data):
        queries, references = data
        rs = RangeSearch(queries, references, radius=0.08)
        run(rs.make_spec())
        expected = brute_range_search(queries, references, 0.08)
        assert [set(hits) for hits in rs.result] == expected

    def test_result_order_schedule_invariant(self, data):
        # Stronger than set equality: per-query append order is the
        # inner traversal order, preserved by every schedule.
        queries, references = data
        rs = RangeSearch(queries, references, radius=0.1)
        run_original(rs.make_spec())
        reference_lists = [list(hits) for hits in rs.result]
        for run in (run_interchanged, run_twisted):
            run(rs.make_spec())
            assert [list(hits) for hits in rs.result] == reference_lists

    def test_zero_radius_only_exact_hits(self, data):
        queries, _ = data
        rs = RangeSearch(queries, queries, radius=0.0)
        run_twisted(rs.make_spec())
        for q, hits in enumerate(rs.result):
            assert q in hits  # every point finds itself

    def test_make_spec_resets(self, data):
        queries, references = data
        rs = RangeSearch(queries, references, radius=0.05)
        run_original(rs.make_spec())
        first = [list(h) for h in rs.result]
        run_original(rs.make_spec())
        assert [list(h) for h in rs.result] == first


class TestValidation:
    def test_negative_radius(self, data):
        queries, references = data
        from repro.dualtree import build_kdtree

        with pytest.raises(ValueError):
            RangeSearchRules(
                build_kdtree(queries), build_kdtree(references), radius=-1.0
            )
