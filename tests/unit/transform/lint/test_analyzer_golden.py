"""Golden pin of every static analyzer family over the built-in specs.

``analyzer_golden.json`` records, per spec, what the three spec-level
analyzers conclude:

* TW1xx conformance (:func:`~repro.transform.lint.backend.lint_spec`):
  the overall verdict, the per-backend verdicts and the sorted
  ``code:severity`` list;
* TW2xx lowerability (:func:`~repro.transform.lint.lower.lint_lower`):
  the lower and independence verdicts with their codes;
* TW30x locality (:func:`~repro.transform.lint.locality.lint_locality`):
  the per-transform verdicts with their codes.

The specs are the seven ``wallclock_cases(0.05)`` benchmarks, the
``GramTable`` fixture at the same scale, and one serve-rules spec per
query kind: a 256-point query tree with 64-point leaves against a
default-leaf-size reference tree (k = 5 for k-NN, radius 0.3 for
count).
The fixture is the contract for any rework of the analyzers' shared
front end: a change that moves one verdict or one diagnostic code shows
up here as a diff.  Regenerate it (only when a verdict change is the
point of the change) with::

    PYTHONPATH=src python tests/unit/transform/lint/test_analyzer_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("analyzer_golden.json")


def _serve_analysis_specs() -> list:
    """One batched serve-rules spec per query kind."""
    from repro.dualtree.batch import bound_arrays, leaf_blocks
    from repro.dualtree.kdtree import build_kdtree
    from repro.dualtree.traverser import dual_tree_spec
    from repro.serve.rules import ServeCountRules, ServeKnnRules
    from repro.serve.service import KINDS, ServiceConfig

    config = ServiceConfig()
    references = np.random.default_rng(7).random((1024, 3))
    exec_tree = build_kdtree(references, config.leaf_size)
    leaf_blocks(exec_tree)
    bound_arrays(exec_tree)
    sample = exec_tree.points[: min(config.max_batch, len(exec_tree.points))]
    specs = []
    for kind in KINDS:
        query_tree = build_kdtree(np.array(sample, copy=True), 64)
        if kind == "count":
            rules = ServeCountRules(query_tree, exec_tree, 0.3)
        else:
            k = 5 if kind == "knn" else 1
            rules = ServeKnnRules(query_tree, exec_tree, k)
        name = f"SERVE-{kind.upper()}"
        specs.append(
            (name, dual_tree_spec(query_tree, exec_tree, rules, name=name))
        )
    return specs


def golden_specs() -> list:
    """``(name, spec)`` for every spec the fixture pins."""
    from repro.bench.workloads import wallclock_cases
    from repro.kernels.gram import GramTable

    specs = [(case.name, case.make_spec()) for case in wallclock_cases(0.05)]
    specs.append(("GT", GramTable(51, 51).make_spec()))
    specs.extend(_serve_analysis_specs())
    return specs


def _codes(diagnostics) -> list:
    return sorted(f"{d.code}:{d.severity}" for d in diagnostics)


def analyzer_record(spec) -> dict:
    """Everything the three analyzer families conclude about ``spec``,
    analyzed afresh (every pass's cache cleared first)."""
    from repro.transform.lint import backend as conformance_pass
    from repro.transform.lint import locality as locality_pass
    from repro.transform.lint import lower as lower_pass

    for analyzer in (conformance_pass, lower_pass, locality_pass):
        analyzer.clear_cache()
    conformance = conformance_pass.lint_spec(spec)
    lower = lower_pass.lint_lower(spec)
    locality = locality_pass.lint_locality(spec)
    return {
        "conformance": {
            "verdict": str(conformance.verdict),
            "backends": dict(sorted(conformance.backends.items())),
            "codes": _codes(conformance.diagnostics),
        },
        "lower": {
            "lower": str(lower.lower),
            "independence": str(lower.independence),
            "codes": _codes(lower.diagnostics),
        },
        "locality": {
            "verdicts": {
                transform: str(verdict)
                for transform, verdict in sorted(locality.verdicts.items())
            },
            "codes": _codes(locality.diagnostics),
        },
    }


def collect() -> dict:
    """The golden payload: one analyzer record per pinned spec."""
    return {name: analyzer_record(spec) for name, spec in golden_specs()}


def test_analyzers_match_the_golden_fixture():
    expected = json.loads(GOLDEN.read_text())
    actual = collect()
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_every_serve_kind_is_vectorizable():
    """The serve oracle's rules stay vectorizable on ``auto``: ``count``
    keeps ``batched`` only because staged helper calls are not counted
    as kernel writes."""
    expected = json.loads(GOLDEN.read_text())
    for kind in ("NN", "KNN", "COUNT"):
        backends = expected[f"SERVE-{kind}"]["conformance"]["backends"]
        assert backends["batched"] == backends["soa"] == "safe", kind


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
