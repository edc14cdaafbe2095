"""Unit tests for code generation."""

import ast


from repro.transform import (
    analyze_truncation,
    generate_interchanged,
    generate_module,
    generate_twisted,
    recognize,
)

REGULAR = '''
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

IRREGULAR = REGULAR.replace("if i is None:", "if i is None or prune(o, i):")


def parts(source):
    template = recognize(source, "outer", "inner")
    return template, analyze_truncation(template)


class TestInterchangedCodegen:
    def test_regular_output_parses_and_swaps_guards(self):
        code = generate_interchanged(*parts(REGULAR))
        ast.parse(code)
        # The swapped outer bounds on the inner guard and vice versa.
        assert "def outer_swapped(o, i):" in code
        assert "def inner_swapped(o, i):" in code
        assert "if i is None:" in code.split("def outer_swapped")[1].split("def ")[0]

    def test_regular_has_no_flag_code(self):
        code = generate_interchanged(*parts(REGULAR))
        assert "trunc" not in code
        assert "_untrunc" not in code

    def test_irregular_emits_flag_machinery(self):
        code = generate_interchanged(*parts(IRREGULAR))
        ast.parse(code)
        assert "_untrunc = []" in code
        assert "o.trunc = True" in code
        assert "_node.trunc = False" in code

    def test_irregular_flag_checked_before_predicate(self):
        code = generate_interchanged(*parts(IRREGULAR))
        inner_swapped = code.split("def inner_swapped")[1]
        assert inner_swapped.index("getattr(o, 'trunc'") < inner_swapped.index(
            "prune(o, i)"
        )


class TestTwistedCodegen:
    def test_emits_the_quartet(self):
        code = generate_twisted(*parts(REGULAR))
        ast.parse(code)
        for name in (
            "outer_twisted",
            "inner_twisted",
            "outer_twisted_swapped",
            "inner_twisted_swapped",
        ):
            assert f"def {name}(" in code

    def test_size_comparisons_present(self):
        code = generate_twisted(*parts(REGULAR))
        assert "_twist_size(_child0) <= _twist_size(i)" in code
        assert "_twist_size(_child0) <= _twist_size(o)" in code

    def test_cutoff_constant(self):
        assert "_TWIST_CUTOFF = None" in generate_twisted(*parts(REGULAR))
        assert "_TWIST_CUTOFF = 64" in generate_twisted(*parts(REGULAR), cutoff=64)

    def test_irregular_regular_order_keeps_structural_guard(self):
        code = generate_twisted(*parts(IRREGULAR))
        inner_twisted = code.split("def inner_twisted(")[1].split("def ")[0]
        # The regular-order inner keeps the ORIGINAL combined guard.
        assert "i is None or prune(o, i)" in inner_twisted


class TestGenerateModule:
    def test_includes_everything(self):
        template, analysis = parts(REGULAR)
        code = generate_module(template, analysis)
        ast.parse(code)
        assert "def _twist_size(" in code
        assert "def outer(" in code  # original round-tripped
        assert "def outer_swapped(" in code
        assert "def outer_twisted(" in code

    def test_can_exclude_original(self):
        template, analysis = parts(REGULAR)
        code = generate_module(template, analysis, include_original=False)
        assert "def outer(o, i):" not in code
        assert "def outer_twisted(" in code
