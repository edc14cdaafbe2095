"""Property-based parity: node-block dispatch vs recursive, any space.

The unit suite checks the six annotated benchmarks; here hypothesis
drives the same contract over *arbitrary* tree shapes, irregular
truncation patterns, schedule options and flush sizes: the SoA
executors' ``nodes`` mode (deferred node pairs through
:class:`~repro.core.batched.BatchDispatcher`) must reproduce the
recursive executor's instrument event stream — every op, access, and
work point, in order — and hence its work-point sequence and op/access
counts, at any ``batch_size``.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    NestedRecursionSpec,
    run_interchanged,
    run_interchanged_soa,
    run_original,
    run_original_soa,
    run_twisted,
    run_twisted_soa,
)
from repro.core.instruments import Instrument
from repro.spaces import random_tree

trees = st.builds(
    random_tree,
    st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=10_000),
)
batch_sizes = st.integers(min_value=1, max_value=64)


def blocked_pairs_strategy(max_nodes=24):
    """Random irregular truncation patterns as (o_label, i_label) sets."""
    pair = st.tuples(
        st.integers(min_value=0, max_value=max_nodes - 1),
        st.integers(min_value=0, max_value=max_nodes - 1),
    )
    return st.frozensets(pair, max_size=12)


class EventRecorder(Instrument):
    """Records every instrument event, in order."""

    def __init__(self):
        self.events = []

    def op(self, kind):
        self.events.append(("op", kind))

    def access(self, tree, node):
        self.events.append(("access", tree, node.number))

    def work(self, o, i):
        self.events.append(("work", o.label, i.label))


def make_spec(outer, inner, blocked):
    """A spec over the given trees, irregular when ``blocked`` is set."""
    if blocked:
        return NestedRecursionSpec(
            outer,
            inner,
            truncate_inner2=lambda o, i: (o.label, i.label) in blocked,
        )
    return NestedRecursionSpec(outer, inner)


def events_of(run, spec, **kwargs):
    recorder = EventRecorder()
    run(spec, instrument=recorder, **kwargs)
    return recorder.events


@settings(max_examples=60, deadline=None)
@given(trees, trees, blocked_pairs_strategy(), batch_sizes)
def test_original_batched_event_parity(outer, inner, blocked, batch_size):
    spec = make_spec(outer, inner, blocked)
    assert events_of(run_original_soa, spec, batch_size=batch_size) == (
        events_of(run_original, spec)
    )


@settings(max_examples=40, deadline=None)
@given(
    trees,
    trees,
    blocked_pairs_strategy(),
    st.booleans(),
    st.booleans(),
    batch_sizes,
)
def test_interchanged_batched_event_parity(
    outer, inner, blocked, use_counters, subtree_truncation, batch_size
):
    spec = make_spec(outer, inner, blocked)
    kwargs = {
        "use_counters": use_counters,
        "subtree_truncation": subtree_truncation,
    }
    assert events_of(
        run_interchanged_soa, spec, batch_size=batch_size, **kwargs
    ) == events_of(run_interchanged, spec, **kwargs)


@settings(max_examples=40, deadline=None)
@given(
    trees,
    trees,
    blocked_pairs_strategy(),
    st.one_of(st.none(), st.integers(min_value=0, max_value=16)),
    st.booleans(),
    st.booleans(),
    batch_sizes,
)
def test_twisted_batched_event_parity(
    outer, inner, blocked, cutoff, use_counters, subtree_truncation, batch_size
):
    spec = make_spec(outer, inner, blocked)
    kwargs = {
        "cutoff": cutoff,
        "use_counters": use_counters,
        "subtree_truncation": subtree_truncation,
    }
    assert events_of(
        run_twisted_soa, spec, batch_size=batch_size, **kwargs
    ) == events_of(run_twisted, spec, **kwargs)


@settings(max_examples=40, deadline=None)
@given(trees, trees, blocked_pairs_strategy(), batch_sizes)
def test_work_sequence_parity_any_batch_size(outer, inner, blocked, batch_size):
    """Deferred dispatch never reorders work, whatever the flush size."""
    recursive_points, batched_points = [], []
    spec = make_spec(outer, inner, blocked)
    spec = NestedRecursionSpec(
        outer,
        inner,
        work=lambda o, i: recursive_points.append((o.label, i.label)),
        truncate_inner2=spec.truncate_inner2,
    )
    run_original(spec)
    spec = NestedRecursionSpec(
        outer,
        inner,
        work=lambda o, i: batched_points.append((o.label, i.label)),
        truncate_inner2=spec.truncate_inner2,
    )
    run_original_soa(spec, batch_size=batch_size)
    assert batched_points == recursive_points
