"""Unit tests for the tool driver and annotations."""

import pytest

from repro.errors import TransformError
from repro.spaces import paper_inner_tree, paper_outer_tree
from repro.transform import (
    find_annotated_pair,
    inner_recursion,
    outer_recursion,
    role_of,
    transform_annotated_source,
    transform_source,
)

SOURCE = '''
def outer(o, i):
    if o is None:
        return
    inner(o, i)
    outer(o.left, i)
    outer(o.right, i)

def inner(o, i):
    if i is None:
        return
    work(o, i)
    inner(o, i.left)
    inner(o, i.right)
'''

ANNOTATED = '''
from repro.transform import outer_recursion, inner_recursion

@outer_recursion(inner="walk_inner")
def walk_outer(o, i):
    if o is None:
        return
    walk_inner(o, i)
    walk_outer(o.left, i)
    walk_outer(o.right, i)

@inner_recursion
def walk_inner(o, i):
    if i is None:
        return
    work(o, i)
    walk_inner(o, i.left)
    walk_inner(o, i.right)
'''


class TestAnnotations:
    def test_markers_attach_metadata(self):
        @outer_recursion(inner="their_inner")
        def their_outer(o, i):
            pass

        @inner_recursion
        def their_inner(o, i):
            pass

        assert role_of(their_outer) == ("outer", "their_inner")
        assert role_of(their_inner) == ("inner", None)
        assert role_of(lambda: None) is None

    def test_outer_requires_name(self):
        with pytest.raises(TypeError):
            outer_recursion(42)


class TestDiscovery:
    def test_finds_annotated_pair(self):
        assert find_annotated_pair(ANNOTATED) == ("walk_outer", "walk_inner")

    def test_missing_annotations(self):
        with pytest.raises(TransformError, match="annotated pair"):
            find_annotated_pair(SOURCE)

    def test_inconsistent_declaration(self):
        bad = ANNOTATED.replace('inner="walk_inner"', 'inner="other"')
        with pytest.raises(TransformError, match="names inner"):
            find_annotated_pair(bad)


class TestTransformSource:
    def test_pipeline_produces_runnable_module(self):
        result = transform_source(SOURCE, "outer", "inner")
        seen = []
        namespace = result.compile({"work": lambda o, i: seen.append((o.label, i.label))})
        namespace.outer_twisted(paper_outer_tree(), paper_inner_tree())
        assert len(seen) == 49

    def test_entry_names(self):
        result = transform_source(SOURCE, "outer", "inner")
        assert result.twisted_entry == "outer_twisted"
        assert result.interchanged_entry == "outer_swapped"
        assert not result.is_irregular

    def test_annotated_entry_point(self):
        result = transform_annotated_source(ANNOTATED)
        assert result.template.outer_name == "walk_outer"


class TestTwistFunctions:
    def test_live_functions_roundtrip(self):
        collected = []

        def their_work(o, i):
            collected.append((o.label, i.label))

        namespace = {"their_work": their_work}
        exec(
            SOURCE.replace("work(o, i)", "their_work(o, i)"),
            namespace,
        )
        # Simulate "live functions defined in a module".
        import types

        module = types.ModuleType("user_module")
        module.__dict__.update(namespace)

        import textwrap

        result = transform_source(
            SOURCE.replace("work(o, i)", "their_work(o, i)"), "outer", "inner"
        )
        ns = result.compile({"their_work": their_work})
        ns.outer_twisted(paper_outer_tree(), paper_inner_tree())
        assert len(collected) == 49
