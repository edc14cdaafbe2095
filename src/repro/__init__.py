"""repro — Locality Transformations for Nested Recursive Iteration Spaces.

A production-quality reproduction of Sundararajah, Sakka & Kulkarni,
*"Locality Transformations for Nested Recursive Iteration Spaces"*
(ASPLOS 2017): recursion interchange and recursion twisting over the
nested recursion template, irregular-truncation machinery, a Python
source-to-source transformation tool, dual-tree n-body benchmarks, and
a simulated memory hierarchy standing in for the paper's hardware
counters.

Quickstart::

    from repro import (
        NestedRecursionSpec, run_original, run_twisted,
        paper_outer_tree, paper_inner_tree, WorkRecorder,
    )

    spec = NestedRecursionSpec(paper_outer_tree(), paper_inner_tree())
    recorder = WorkRecorder()
    run_twisted(spec, instrument=recorder)
    print(recorder.points)  # the Figure 4(b) schedule

Every name in ``__all__`` resolves on first use: ``import repro`` loads
no subpackage, and ``from repro import X`` imports only the module
that defines ``X``.  So a process that needs one layer (the query
server) never pays for the others (the executors, the analyzers, the
simulated memory hierarchy).

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from importlib import import_module as _import_module


def _lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]) -> tuple:
    """PEP 562 hooks that import a re-exported name's module on first use.

    ``exports`` maps a module to the public names it defines.  Returns
    the package's ``__getattr__`` and ``__dir__`` and its ``__all__``;
    ``__getattr__`` caches each resolved name in ``namespace``, so a
    name costs one import, on first access.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value = getattr(_import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, sorted(home)


__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        "repro.core": (
            "INNER_TREE",
            "INTERCHANGE",
            "ORIGINAL",
            "OUTER_TREE",
            "TWIST",
            "AccessTraceRecorder",
            "CacheProbe",
            "FootprintRecorder",
            "Instrument",
            "NestedRecursionSpec",
            "OpCounter",
            "ReuseDistanceProbe",
            "Schedule",
            "WorkRecorder",
            "check_transformation",
            "combine",
            "get_schedule",
            "is_outer_parallel",
            "run_interchanged",
            "run_original",
            "run_twisted",
            "twist_with_cutoff",
        ),
        "repro.errors": (
            "MemorySimError",
            "ReproError",
            "ScheduleError",
            "SoundnessError",
            "SpecError",
            "TransformError",
        ),
        "repro.memory": (
            "AddressMap",
            "CacheHierarchy",
            "CostModel",
            "PerfReport",
            "ReuseDistanceAnalyzer",
            "instruction_overhead",
            "layout_tree",
            "scaled_hierarchy",
            "speedup",
        ),
        "repro.spaces": (
            "IndexNode",
            "IterationSpace",
            "TreeNode",
            "balanced_tree",
            "finalize_tree",
            "list_tree",
            "paper_inner_tree",
            "paper_outer_tree",
            "perfect_tree",
            "random_tree",
            "render_schedule",
            "tree_from_nested",
        ),
    },
)

__version__ = "1.0.0"
__all__.append("__version__")
