"""Property-based monotonicity of the TW30x locality cost model.

The contract under test: under a *fixed* cache model, making the inner
working set strictly larger can only push a blocking transformation's
verdict toward "worse" — a spec judged ``regressive`` must never flip
back to ``profitable`` (or ``neutral``) just because the tree grew,
and the inferred footprint itself must grow with the tree.  Without
this, the analyzer's verdicts would be unstable exactly where the
paper's profitability argument (Section 3.2) is monotone: more data
per outer point never improves cache behavior.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.spec import NestedRecursionSpec
from repro.memory import CacheModel
from repro.spaces.trees import balanced_tree
from repro.transform.lint import locality
from repro.transform.lint.locality import LocalityVerdict, lint_locality

#: Fixed small model so hypothesis-sized trees cross every boundary.
MODEL = CacheModel(l1_bytes=1024, l2_bytes=2048, l3_bytes=4096)

#: How "bad for blocking" each interchange verdict is, in order.  The
#: regular specs below always resolve reuse, so UNKNOWN cannot occur.
SEVERITY = {
    LocalityVerdict.NEUTRAL: 0,
    LocalityVerdict.PROFITABLE: 1,
    LocalityVerdict.REGRESSIVE: 2,
}


def regular_spec(num_nodes: int) -> NestedRecursionSpec:
    acc = np.zeros(1)

    def work(o, i):
        acc[0] += i.data

    return NestedRecursionSpec(
        outer_root=balanced_tree(7, data=lambda k: k),
        inner_root=balanced_tree(num_nodes, data=lambda k: k),
        work=work,
        name=f"prop-{num_nodes}",
    )


@settings(max_examples=60, deadline=None)
@given(
    smaller=st.integers(min_value=1, max_value=300),
    growth=st.integers(min_value=1, max_value=300),
)
def test_growing_the_inner_tree_never_improves_interchange(smaller, growth):
    locality.clear_cache()
    small = lint_locality(regular_spec(smaller), cache_model=MODEL)
    large = lint_locality(regular_spec(smaller + growth), cache_model=MODEL)
    assert small.footprint_bytes < large.footprint_bytes
    assert (
        SEVERITY[large.verdicts["interchange"]]
        >= SEVERITY[small.verdicts["interchange"]]
    )
    # The sharp end of the property: once regressive, growth can never
    # buy the verdict back.
    if small.verdicts["interchange"] is LocalityVerdict.REGRESSIVE:
        assert large.verdicts["interchange"] is LocalityVerdict.REGRESSIVE


@settings(max_examples=40, deadline=None)
@given(num_nodes=st.integers(min_value=1, max_value=300))
def test_twist_is_never_regressive_on_regular_specs(num_nodes):
    locality.clear_cache()
    report = lint_locality(regular_spec(num_nodes), cache_model=MODEL)
    assert report.verdicts["twist"] is not LocalityVerdict.REGRESSIVE
