"""Unit tests for recursion-limit management."""

import sys

import pytest

from repro.core import (
    MAX_SAFE_RECURSION_LIMIT,
    exceeds_safe_depth,
    recursion_guard,
    required_limit,
    run_interchanged,
    run_original,
    run_twisted,
)
from repro.core.spec import NestedRecursionSpec
from repro.errors import ScheduleError
from repro.spaces import balanced_tree, list_tree


class TestRequiredLimit:
    def test_scales_with_depth(self):
        shallow = required_limit(balanced_tree(7), balanced_tree(7))
        deep = required_limit(list_tree(500), list_tree(500))
        assert deep > shallow
        assert deep >= 1000 * 4  # both depths, 4 frames per level

    def test_includes_headroom(self):
        assert required_limit(balanced_tree(1), balanced_tree(1)) > 200


class TestGuard:
    def test_raises_limit_temporarily(self):
        before = sys.getrecursionlimit()
        with recursion_guard(list_tree(1000), list_tree(1000)):
            assert sys.getrecursionlimit() >= 4000
        assert sys.getrecursionlimit() == before

    def test_never_lowers_limit(self):
        before = sys.getrecursionlimit()
        with recursion_guard(balanced_tree(1), balanced_tree(1)):
            assert sys.getrecursionlimit() >= before
        assert sys.getrecursionlimit() == before

    def test_minimum_override(self):
        with recursion_guard(balanced_tree(1), balanced_tree(1), minimum=9999):
            assert sys.getrecursionlimit() >= 9999

    def test_restores_on_exception(self):
        before = sys.getrecursionlimit()
        try:
            with recursion_guard(list_tree(1000), list_tree(1000)):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert sys.getrecursionlimit() == before


class TestSafeDepthCeiling:
    """The guard refuses unsafe limits; executors route around them."""

    def test_guard_refuses_past_ceiling(self):
        before = sys.getrecursionlimit()
        with pytest.raises(ScheduleError, match="soa_exec"):
            with recursion_guard(list_tree(5000), list_tree(5000)):
                pass  # pragma: no cover - never entered
        assert sys.getrecursionlimit() == before

    def test_guard_refuses_excessive_minimum(self):
        with pytest.raises(ScheduleError):
            with recursion_guard(
                balanced_tree(1),
                balanced_tree(1),
                minimum=MAX_SAFE_RECURSION_LIMIT + 1,
            ):
                pass  # pragma: no cover - never entered

    def test_exceeds_safe_depth(self):
        assert not exceeds_safe_depth(balanced_tree(1023), balanced_tree(1023))
        assert exceeds_safe_depth(list_tree(5000), list_tree(5000))


class TestDeepTreeRouting:
    """Regression: deep (list-shaped) trees used to die with
    RecursionError (or worse, a C-stack crash) inside the recursive
    executors; they now route through the explicit-stack SoA
    executors and produce the same results."""

    @staticmethod
    def _deep_spec(collected):
        outer = list_tree(4000)
        inner = balanced_tree(3)
        return NestedRecursionSpec(
            outer_root=outer,
            inner_root=inner,
            work=lambda o, i: collected.append((o.number, i.number)),
        )

    def test_original_runs_deep_tree(self):
        collected = []
        run_original(self._deep_spec(collected))
        assert len(collected) == 4000 * 3

    def test_interchanged_runs_deep_tree(self):
        collected = []
        run_interchanged(self._deep_spec(collected))
        assert len(collected) == 4000 * 3

    def test_twisted_runs_deep_tree(self):
        collected = []
        run_twisted(self._deep_spec(collected))
        assert len(collected) == 4000 * 3

    def test_deep_routing_matches_shallow_semantics(self):
        # The same spec shape below the ceiling, run recursively,
        # produces the same work sequence the routed executor yields at
        # depth: compare against the SoA executor directly.
        from repro.core import run_original_soa

        deep, routed = [], []
        spec = self._deep_spec(deep)
        run_original(spec)
        spec = NestedRecursionSpec(
            outer_root=spec.outer_root,
            inner_root=spec.inner_root,
            work=lambda o, i: routed.append((o.number, i.number)),
        )
        run_original_soa(spec)
        assert deep == routed
