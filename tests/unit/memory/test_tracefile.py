"""Unit tests for trace persistence."""

import numpy as np
import pytest

from repro.core import AccessTraceRecorder, NestedRecursionSpec, run_original
from repro.errors import MemorySimError
from repro.memory import ReuseDistanceAnalyzer, from_tuples, load_trace, save_trace
from repro.spaces import balanced_tree


@pytest.fixture
def recorded():
    spec = NestedRecursionSpec(balanced_tree(15), balanced_tree(15))
    recorder = AccessTraceRecorder()
    run_original(spec, instrument=recorder)
    return recorder.trace


class TestRoundTrip:
    def test_tuples_round_trip(self, recorded):
        trace = from_tuples(recorded)
        assert trace.as_tuples() == recorded
        assert len(trace) == len(recorded)

    def test_file_round_trip(self, recorded, tmp_path):
        path = str(tmp_path / "trace.npz")
        save_trace(path, recorded)
        loaded = load_trace(path)
        assert loaded.as_tuples() == recorded

    def test_save_accepts_trace_object(self, recorded, tmp_path):
        path = str(tmp_path / "trace.npz")
        save_trace(path, from_tuples(recorded))
        assert load_trace(path).as_tuples() == recorded

    def test_interning(self, recorded):
        trace = from_tuples(recorded)
        assert sorted(trace.space_names) == ["inner", "outer"]
        assert trace.spaces.dtype == np.int64


class TestReplay:
    def test_replay_matches_live_analysis(self, recorded):
        live = ReuseDistanceAnalyzer()
        live.process(recorded)
        replayed = from_tuples(recorded).replay_reuse()
        assert replayed.histogram == live.histogram
        assert replayed.cold_accesses == live.cold_accesses


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MemorySimError, match="cannot read"):
            load_trace(str(tmp_path / "ghost.npz"))

    def test_wrong_content(self, tmp_path):
        path = str(tmp_path / "other.npz")
        np.savez(path, unrelated=np.arange(3))
        with pytest.raises(MemorySimError, match="not a trace file"):
            load_trace(path)

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        save_trace(path, [])
        assert load_trace(path).as_tuples() == []
