"""Property-based sanitize coverage: shadow execution never diverges.

The unit suite seeds known-bad kernels and demands divergence; here
hypothesis drives the opposite direction over *arbitrary* spaces: for
random tree shapes, random irregular truncation patterns, every
schedule and both vectorized backends, a conforming spec must complete
all sanitize phases with zero divergences — which is precisely the
statement that its instrument event stream and payload equal the
recursive reference's, since :func:`repro.core.sanitize.run_sanitized`
compares both in lockstep and raises on the first difference.
"""

from hypothesis import given, settings, strategies as st

from repro.core.sanitize import run_sanitized
from repro.core.spec import NestedRecursionSpec
from repro.spaces import random_tree

tree_shapes = st.tuples(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=10_000),
)

blocked_pairs = st.frozensets(
    st.tuples(
        st.integers(min_value=0, max_value=23),
        st.integers(min_value=0, max_value=23),
    ),
    max_size=12,
)


def make_factory(outer_shape, inner_shape, blocked):
    """Fresh-spec factory over the given shapes, plus a payload probe.

    The kernels conform by construction (per-pair replay of the scalar
    update); the payload folds node labels asymmetrically so that any
    dropped, duplicated, or re-paired work point changes it.
    """
    state = {}

    def factory():
        outer = random_tree(*outer_shape, data=float)
        inner = random_tree(*inner_shape, data=float)
        acc = {"total": 0.0, "pairs": 0}
        state["acc"] = acc

        def work(o, i):
            acc["total"] += o.data * 31.0 + i.data
            acc["pairs"] += 1

        def work_batch(os, is_):
            for o, i in zip(os, is_):
                acc["total"] += o.data * 31.0 + i.data
                acc["pairs"] += 1

        truncate = None
        if blocked:
            def truncate(o, i):
                return (o.label, i.label) in blocked

        return NestedRecursionSpec(
            outer_root=outer,
            inner_root=inner,
            name="property",
            work=work,
            work_batch=work_batch,
            truncate_inner2=truncate,
        )

    return factory, (lambda: (state["acc"]["total"], state["acc"]["pairs"]))


@settings(max_examples=40, deadline=None)
@given(tree_shapes, tree_shapes, blocked_pairs)
def test_batched_sanitize_never_diverges(outer_shape, inner_shape, blocked):
    """soa's node-block mode (these specs carry only ``work_batch``)
    under the named schedules the next property does not sweep."""
    factory, probe = make_factory(outer_shape, inner_shape, blocked)
    for schedule in (
        "interchange",
        "interchange+subtree",
        "twist+counters",
        "twist-subtree",
    ):
        report = run_sanitized(factory, schedule, backend="soa", probe=probe)
        assert report.phases == ["record", "lockstep", "fast-path"]


@settings(max_examples=40, deadline=None)
@given(tree_shapes, tree_shapes, blocked_pairs)
def test_soa_sanitize_never_diverges(outer_shape, inner_shape, blocked):
    factory, probe = make_factory(outer_shape, inner_shape, blocked)
    for schedule in ("original", "twist"):
        report = run_sanitized(factory, schedule, backend="soa", probe=probe)
        assert report.phases == ["record", "lockstep", "fast-path"]


@settings(max_examples=25, deadline=None)
@given(tree_shapes, tree_shapes)
def test_auto_resolution_is_sanitize_clean(outer_shape, inner_shape):
    """Whatever backend ``auto`` resolves to survives shadowing (the
    recursive resolution short-circuits after the record phase)."""
    factory, probe = make_factory(outer_shape, inner_shape, frozenset())
    report = run_sanitized(factory, "twist", backend="auto", probe=probe)
    assert report.phases[0] == "record"
    assert report.events > 0


def test_builtin_specs_sanitize_clean_smoke():
    """Every built-in benchmark spec survives shadowing under the soa
    backend at smoke scale (the property above cannot build these; the
    CI sweep runs them bigger)."""
    from repro.bench.sanitize_sweep import run_sanitize_sweep

    sweep = run_sanitize_sweep(scale=0.02)
    assert sweep.ok, sweep.render()
    assert len(sweep.runs) == 7 * 2 * 1
