"""Unit tests for bounding volumes."""

import math

import numpy as np
import pytest

from repro.dualtree import Ball, HRect, point_dist


class TestHRect:
    def test_of_points(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [1.0, -1.0]])
        box = HRect.of_points(pts)
        assert box.mins == (0.0, -1.0)
        assert box.maxs == (2.0, 3.0)
        assert box.dim == 2

    def test_min_dist_overlapping_is_zero(self):
        a = HRect((0, 0), (2, 2))
        b = HRect((1, 1), (3, 3))
        assert a.min_dist(b) == 0.0

    def test_min_dist_axis_gap(self):
        a = HRect((0, 0), (1, 1))
        b = HRect((3, 0), (4, 1))
        assert a.min_dist(b) == pytest.approx(2.0)

    def test_min_dist_diagonal_gap(self):
        a = HRect((0, 0), (1, 1))
        b = HRect((2, 2), (3, 3))
        assert a.min_dist(b) == pytest.approx(math.sqrt(2))

    def test_min_dist_symmetric(self):
        a = HRect((0, 0), (1, 2))
        b = HRect((5, -3), (6, -1))
        assert a.min_dist(b) == pytest.approx(b.min_dist(a))

    def test_max_dist(self):
        a = HRect((0, 0), (1, 1))
        b = HRect((2, 2), (3, 3))
        assert a.max_dist(b) == pytest.approx(math.sqrt(18))

    def test_max_dist_bounds_any_pair(self):
        rng = np.random.default_rng(0)
        pa, pb = rng.random((20, 2)), rng.random((20, 2)) + 2.0
        a, b = HRect.of_points(pa), HRect.of_points(pb)
        pairwise = np.sqrt(((pa[:, None] - pb[None, :]) ** 2).sum(-1))
        assert pairwise.max() <= a.max_dist(b) + 1e-9
        assert pairwise.min() >= a.min_dist(b) - 1e-9

    @pytest.mark.parametrize("dim", [3, 8, 11])
    def test_min_dist_never_exceeds_a_computed_distance(self, dim):
        # Zero-volume boxes are points, so min_dist must be <= the
        # computed point distance bit for bit; from 8 dimensions up
        # that needs NumPy's pairwise summation, not a left-to-right sum.
        from repro.dualtree.batch import BoundArrays, min_dists_to_tree
        from repro.dualtree.rules import _pairwise_distances

        rng = np.random.default_rng(dim)
        queries, points = rng.random((40, dim)), rng.random((60, dim))
        distances = _pairwise_distances(queries, points)
        arrays = BoundArrays(mins=points, maxs=points)
        for row, query in enumerate(queries):
            box = HRect(query, query)
            scalar = np.array([box.min_dist(HRect(p, p)) for p in points])
            assert np.array_equal(scalar, min_dists_to_tree(box, arrays))
            assert np.all(scalar <= distances[row])

    def test_contains_point(self):
        box = HRect((0, 0), (1, 1))
        assert box.contains_point((0.5, 1.0))
        assert not box.contains_point((1.5, 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            HRect((0, 0), (1,))
        with pytest.raises(ValueError):
            HRect((2,), (1,))


class TestBall:
    def test_min_dist_disjoint(self):
        a = Ball((0, 0), 1.0)
        b = Ball((5, 0), 1.0)
        assert a.min_dist(b) == pytest.approx(3.0)

    def test_min_dist_intersecting_is_zero(self):
        a = Ball((0, 0), 2.0)
        b = Ball((1, 0), 2.0)
        assert a.min_dist(b) == 0.0

    def test_max_dist(self):
        a = Ball((0, 0), 1.0)
        b = Ball((5, 0), 2.0)
        assert a.max_dist(b) == pytest.approx(8.0)

    def test_bounds_any_contained_pair(self):
        rng = np.random.default_rng(1)
        ca, cb = np.array([0.0, 0.0]), np.array([4.0, 0.0])
        pa = ca + rng.normal(0, 0.3, (50, 2))
        pb = cb + rng.normal(0, 0.3, (50, 2))
        ra = float(np.sqrt(((pa - ca) ** 2).sum(1)).max())
        rb = float(np.sqrt(((pb - cb) ** 2).sum(1)).max())
        a, b = Ball(ca, ra), Ball(cb, rb)
        pairwise = np.sqrt(((pa[:, None] - pb[None, :]) ** 2).sum(-1))
        assert pairwise.min() >= a.min_dist(b) - 1e-9
        assert pairwise.max() <= a.max_dist(b) + 1e-9

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Ball((0, 0), -0.1)


class TestPointDist:
    def test_euclidean(self):
        assert point_dist((0, 0), (3, 4)) == pytest.approx(5.0)
        assert point_dist((1, 1, 1), (1, 1, 1)) == 0.0
