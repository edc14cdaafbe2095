"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

# Project-wide hypothesis profile: the executors are Python-recursion
# heavy, so per-example deadlines are noisy; cap examples for speed.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def paper_trees():
    """The Figure 1(b) trees: (outer A..G, inner 1..7)."""
    from repro.spaces import paper_inner_tree, paper_outer_tree

    return paper_outer_tree(), paper_inner_tree()


@pytest.fixture
def small_points():
    """A deterministic 2-D point cloud for spatial-tree tests."""
    from repro.spaces import clustered_points

    return clustered_points(200, clusters=8, spread=0.04, seed=5)


@pytest.fixture
def refuse_compiled(monkeypatch):
    """Make the selector's TW20x compiled gate say "not lowerable".

    A lowerable spec runs the fused ``compiled`` backend ahead of the
    process pool on every host, so the parallel rule is reachable only
    for specs the fused kernel cannot run; TJ and MM stand in for one.
    """
    from repro.core import backend_select

    monkeypatch.setattr(
        backend_select,
        "_compiled_eligible",
        lambda spec: (False, "not lowerable (test)", ()),
    )


@pytest.fixture
def force_conformance(monkeypatch):
    """Make the TW1xx analyzer report chosen per-backend verdicts.

    ``force_conformance(batched="safe", soa="unsafe")`` keeps the real
    report's diagnostics and overrides only its ``backends``
    (``recursive`` stays safe), so the selector's refusal path runs on
    specs whose kernels the analyzer genuinely proves.
    """
    import dataclasses

    from repro.transform.lint import backend as lint_backend

    genuine = lint_backend.lint_spec

    def force(**verdicts):
        monkeypatch.setattr(
            lint_backend,
            "lint_spec",
            lambda spec: dataclasses.replace(
                genuine(spec), backends={"recursive": "safe", **verdicts}
            ),
        )

    return force
