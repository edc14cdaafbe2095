"""Unit tests for tile-structure analysis."""

import pytest

from repro.analysis import (
    Tile,
    TileSummary,
    balance_profile,
    rectangle_decomposition,
    window_balance,
)
from repro.core import NestedRecursionSpec, WorkRecorder, run_original, run_twisted
from repro.spaces import balanced_tree, paper_inner_tree, paper_outer_tree


class TestRectangleDecomposition:
    def test_single_point(self):
        tiles = rectangle_decomposition([("a", 1)])
        assert len(tiles) == 1
        assert tiles[0].area == 1
        assert tiles[0].shape == (1, 1)

    def test_full_column_is_one_tile(self):
        points = [("a", i) for i in range(5)]
        tiles = rectangle_decomposition(points)
        assert len(tiles) == 1
        assert tiles[0].shape == (1, 5)

    def test_square_tile_detected(self):
        points = [(o, i) for o in "ab" for i in (1, 2)]
        tiles = rectangle_decomposition(points)
        assert len(tiles) == 1
        assert tiles[0].shape == (2, 2)
        assert tiles[0].balance == 1.0

    def test_non_rectangular_window_splits(self):
        # (a,1),(b,2) is not a cross product: two 1x1 tiles.
        tiles = rectangle_decomposition([("a", 1), ("b", 2)])
        assert [tile.area for tile in tiles] == [1, 1]

    def test_duplicate_point_forces_split(self):
        tiles = rectangle_decomposition([("a", 1), ("a", 1)])
        assert len(tiles) == 2

    def test_partition_covers_everything(self):
        points = [(o, i) for o in range(4) for i in range(3)]
        tiles = rectangle_decomposition(points)
        assert tiles[0].start == 0
        assert tiles[-1].end == len(points)
        for before, after in zip(tiles, tiles[1:]):
            assert before.end == after.start


class TestOnPaperSchedules:
    def spec(self):
        return NestedRecursionSpec(paper_outer_tree(), paper_inner_tree())

    def points(self, run):
        recorder = WorkRecorder()
        run(self.spec(), instrument=recorder)
        return recorder.points

    def test_complete_enumeration_is_one_rectangle(self):
        # Caveat documented in the module: a full enumeration of a
        # rectangular space is itself one giant rectangle.
        tiles = rectangle_decomposition(self.points(run_original))
        assert len(tiles) == 1
        assert tiles[0].shape == (7, 7)

    def test_twisted_windows_are_squarer(self):
        # The "tiles emerge" claim, measured: at window ~ tile size,
        # the twisted schedule touches near-square regions while the
        # original touches 1-wide strips.
        original = window_balance(self.points(run_original), 9)
        twisted = window_balance(self.points(run_twisted), 9)
        assert original < 0.4
        assert twisted > 2 * original

    def test_balance_gap_grows_with_tree_size(self):
        spec = NestedRecursionSpec(balanced_tree(63), balanced_tree(63))
        original, twisted = WorkRecorder(), WorkRecorder()
        run_original(spec, instrument=original)
        run_twisted(spec, instrument=twisted)
        for window in (16, 64, 256):
            assert window_balance(twisted.points, window) > 3 * window_balance(
                original.points, window
            ), window

    def test_balance_profile_shape(self):
        profile = balance_profile(self.points(run_twisted), [4, 9, 16])
        assert set(profile) == {4, 9, 16}
        assert all(0.0 <= value <= 1.0 for value in profile.values())


class TestSummary:
    def test_empty(self):
        summary = TileSummary.of([])
        assert summary.num_tiles == 0
        assert summary.mean_area == 0.0

    def test_statistics(self):
        tiles = [
            Tile(0, 4, frozenset("ab"), frozenset([1, 2])),
            Tile(4, 6, frozenset("a"), frozenset([3, 4])),
        ]
        summary = TileSummary.of(tiles)
        assert summary.num_tiles == 2
        assert summary.mean_area == 3.0
        assert summary.max_area == 4
        assert summary.mean_balance == pytest.approx((1.0 + 0.5) / 2)


class TestWindowBalance:
    def test_strip_schedule_scores_low(self):
        points = [("a", i) for i in range(16)]
        assert window_balance(points, 8) == pytest.approx(1 / 8)

    def test_square_tiles_score_one(self):
        points = []
        for tile in range(4):
            outer = [f"o{tile}a", f"o{tile}b"]
            inner = [2 * tile, 2 * tile + 1]
            points.extend((o, i) for o in outer for i in inner)
        assert window_balance(points, 4) == 1.0

    def test_window_larger_than_schedule(self):
        assert window_balance([("a", 1)], 5) == 0.0

    def test_stride_control(self):
        points = [("a", i) for i in range(6)]
        overlapping = window_balance(points, 3, stride=1)
        assert overlapping == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            window_balance([("a", 1)], 0)
