"""Meta-tests: the documentation deliverables hold.

* every public module, class, and function in ``repro`` carries a
  docstring (deliverable: "doc comments on every public item");
* the README's quickstart code actually runs;
* the top-level ``__all__`` names all resolve.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


class TestDocstrings:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
    )
    def test_module_documented(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
    )
    def test_public_items_documented(self, module):
        undocumented = []
        for name, item in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(item) or inspect.isfunction(item)):
                continue
            if getattr(item, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(item):
                for member_name, member in vars(item).items():
                    if member_name.startswith("_"):
                        continue
                    if not inspect.isfunction(member):
                        continue
                    # getdoc resolves inherited contracts through the
                    # MRO: an override of a documented hook is fine.
                    doc = inspect.getdoc(getattr(item, member_name))
                    if not (doc and doc.strip()):
                        undocumented.append(f"{name}.{member_name}")
        assert not undocumented, f"{module.__name__}: {undocumented}"


class TestPublicApi:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_alls_resolve(self):
        for module in ALL_MODULES:
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        # The exact code from README.md's Quickstart section.
        from repro import (
            NestedRecursionSpec,
            WorkRecorder,
            render_schedule,
            IterationSpace,
            run_original,
            run_twisted,
            paper_outer_tree,
            paper_inner_tree,
        )

        outer, inner = paper_outer_tree(), paper_inner_tree()
        spec = NestedRecursionSpec(outer, inner)
        recorder = WorkRecorder()
        run_twisted(spec, instrument=recorder)
        space = IterationSpace.from_trees(outer, inner)
        space.validate_schedule(recorder.points)
        rendered = render_schedule(space, recorder.points)
        assert "A" in rendered

    def test_architecture_snippet_runs(self):
        from repro import NestedRecursionSpec, run_twisted, combine
        from repro.core import OpCounter, CacheProbe
        from repro.memory import AddressMap, layout_tree, scaled_hierarchy
        from repro.spaces import balanced_tree

        spec = NestedRecursionSpec(balanced_tree(100), balanced_tree(100))
        amap = AddressMap()
        layout_tree(amap, spec.outer_root, "outer")
        layout_tree(amap, spec.inner_root, "inner")
        ops, cache = OpCounter(), CacheProbe(amap, scaled_hierarchy())
        run_twisted(spec, instrument=combine(ops, cache))
        assert cache.hierarchy.stats_by_name()["L1"].accesses > 0

    def test_batched_backend_snippet_runs(self):
        # The code from README.md's "Explicit-stack execution" section
        # (smaller trees to keep the suite fast).
        from repro.core import OpCounter, get_schedule
        from repro.kernels import TreeJoin

        tj = TreeJoin(127, 127)
        recursive, soa = OpCounter(), OpCounter()
        get_schedule("twist").run(tj.make_spec(), recursive)
        get_schedule("twist").run(tj.make_spec(), soa, backend="soa")
        assert soa.counts == recursive.counts
        assert soa.work_points == recursive.work_points
