"""What importing a package loads: the server's footprint and lazy exports.

Each check runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: Packages the query server must never load: the executors, the
#: analyzers, the simulated memory hierarchy, the kernels and the bench.
SERVER_NEVER_LOADS_PACKAGES = (
    "repro.core",
    "repro.transform",
    "repro.memory",
    "repro.kernels",
    "repro.bench",
)

#: Modules only the serial oracle or the batch benchmarks use.
SERVER_NEVER_LOADS_MODULES = (
    "repro.dualtree.algorithms",
    "repro.dualtree.parallel",
    "repro.dualtree.rules",
    "repro.dualtree.traverser",
    "repro.dualtree.kde",
    "repro.dualtree.vptree",
    "repro.serve.rules",
)

#: ``import repro.serve.__main__`` loads this many ``repro`` modules.
SERVER_MODULE_BUDGET = 21


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    output = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    return json.loads(output.strip().splitlines()[-1])


def loaded_after(statement: str) -> list[str]:
    return run_fresh(
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))"
    )


class TestServerFootprint:
    def test_the_server_loads_only_the_tick_path(self):
        loaded = loaded_after("import repro.serve.__main__")
        assert "repro.serve.service" in loaded
        assert "repro.dualtree.frontier" in loaded
        for module in loaded:
            for package in SERVER_NEVER_LOADS_PACKAGES:
                assert not (
                    module == package or module.startswith(package + ".")
                ), module
            assert module not in SERVER_NEVER_LOADS_MODULES, module
        assert len(loaded) <= SERVER_MODULE_BUDGET, loaded

    def test_importing_the_package_loads_no_subpackage(self):
        assert loaded_after("import repro") == ["repro"]
        assert loaded_after("import repro.dualtree") == ["repro", "repro.dualtree"]


class TestLazyExports:
    def test_every_exported_name_resolves_and_is_listed(self):
        result = run_fresh(
            "import importlib, json\n"
            "report = {}\n"
            "for package in ('repro', 'repro.dualtree'):\n"
            "    module = importlib.import_module(package)\n"
            "    listed = set(dir(module))\n"
            "    problems = []\n"
            "    for name in module.__all__:\n"
            "        namespace = {}\n"
            "        exec(f'from {package} import {name}', namespace)\n"
            "        if namespace[name] is not getattr(module, name):\n"
            "            problems.append(name)\n"
            "        if name not in listed:\n"
            "            problems.append(f'{name} not in dir()')\n"
            "    report[package] = [module.__all__, problems]\n"
            "print(json.dumps(report))"
        )
        top_names, top_problems = result["repro"]
        dualtree_names, dualtree_problems = result["repro.dualtree"]
        assert top_problems == [] and dualtree_problems == []
        assert {
            "NestedRecursionSpec",
            "get_schedule",
            "SpecError",
            "CacheHierarchy",
            "TreeNode",
            "__version__",
        } <= set(top_names)
        assert {
            "build_kdtree",
            "leaf_blocks",
            "PointCorrelation",
            "KernelDensity",
            "dual_tree_spec",
        } <= set(dualtree_names)

    def test_an_unknown_name_is_an_attribute_error(self):
        import repro
        import repro.dualtree

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            repro.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec("from repro.dualtree import no_such_name", {})
