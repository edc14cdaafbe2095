"""Bounding volumes for spatial trees: hyperrectangles and balls.

kd-tree nodes carry axis-aligned bounding hyperrectangles
(:class:`HRect`); vantage-point tree nodes carry metric balls
(:class:`Ball`).  Dual-tree ``Score`` functions prune on conservative
*minimum* distances between two bounds, and accept in bulk on
conservative *maximum* distances, so both types provide ``min_dist`` /
``max_dist`` against their own kind.

Bounds are plain Python tuples rather than numpy arrays: they are
touched once per visited node pair (millions of times per run) where a
2-8 element Python loop beats numpy's per-call overhead by an order of
magnitude.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Dimension from which NumPy's reduction sums a row of squared terms
#: pairwise instead of left to right; point distances
#: (``_pairwise_distances``) are summed that way, so minimum distances
#: that must never exceed them are too.
PAIRWISE_DIM = 8


class HRect:
    """An axis-aligned hyperrectangle ``[mins[d], maxs[d]]`` per dimension."""

    __slots__ = ("mins", "maxs")

    def __init__(self, mins: Sequence[float], maxs: Sequence[float]) -> None:
        if len(mins) != len(maxs):
            raise ValueError("mins and maxs must have equal dimension")
        self.mins = tuple(float(v) for v in mins)
        self.maxs = tuple(float(v) for v in maxs)
        for lo, hi in zip(self.mins, self.maxs):
            if lo > hi:
                raise ValueError(f"empty extent [{lo}, {hi}]")

    @classmethod
    def of_points(cls, points) -> "HRect":
        """Tight bounding box of an ``(n, d)`` point array."""
        return cls(points.min(axis=0), points.max(axis=0))

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return len(self.mins)

    def min_dist(self, other: "HRect") -> float:
        """Smallest Euclidean distance between any two contained points.

        Zero when the rectangles overlap; the standard per-axis gap
        formula otherwise.  The squared gaps are summed the way point
        distances are — left to right below :data:`PAIRWISE_DIM`
        dimensions, by NumPy's pairwise reduction from there up — and no
        gap exceeds the matching coordinate difference, so the result
        never exceeds the computed distance between two contained
        points, not even by an ulp.
        """
        if len(self.mins) >= PAIRWISE_DIM:
            gaps = np.maximum(
                np.maximum(
                    np.subtract(other.mins, self.maxs),
                    np.subtract(self.mins, other.maxs),
                ),
                0.0,
            )
            return math.sqrt(float((gaps * gaps).sum()))
        total = 0.0
        for lo_a, hi_a, lo_b, hi_b in zip(self.mins, self.maxs, other.mins, other.maxs):
            gap = lo_b - hi_a if lo_b > hi_a else lo_a - hi_b
            if gap > 0.0:
                total += gap * gap
        return math.sqrt(total)

    def max_dist(self, other: "HRect") -> float:
        """Largest Euclidean distance between any two contained points."""
        total = 0.0
        for lo_a, hi_a, lo_b, hi_b in zip(self.mins, self.maxs, other.mins, other.maxs):
            span = max(hi_b - lo_a, hi_a - lo_b)
            total += span * span
        return math.sqrt(total)

    def contains_point(self, point: Sequence[float]) -> bool:
        """Is the point inside (or on the boundary of) the rectangle?"""
        return all(
            lo <= coordinate <= hi
            for coordinate, lo, hi in zip(point, self.mins, self.maxs)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HRect({self.mins}, {self.maxs})"


class Ball:
    """A metric ball: center point plus radius."""

    __slots__ = ("center", "radius")

    def __init__(self, center: Sequence[float], radius: float) -> None:
        if radius < 0.0:
            raise ValueError(f"negative radius {radius}")
        self.center = tuple(float(v) for v in center)
        self.radius = float(radius)

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return len(self.center)

    def center_dist(self, other: "Ball") -> float:
        """Euclidean distance between the two centers."""
        total = 0.0
        for a, b in zip(self.center, other.center):
            diff = a - b
            total += diff * diff
        return math.sqrt(total)

    def min_dist(self, other: "Ball") -> float:
        """Smallest possible distance between contained points.

        ``max(0, |c1 - c2| - r1 - r2)`` — zero when the balls intersect.
        """
        return max(0.0, self.center_dist(other) - self.radius - other.radius)

    def max_dist(self, other: "Ball") -> float:
        """Largest possible distance between contained points."""
        return self.center_dist(other) + self.radius + other.radius

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ball({self.center}, r={self.radius:.4g})"


def point_dist(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two points (plain-Python hot path)."""
    total = 0.0
    for x, y in zip(a, b):
        diff = x - y
        total += diff * diff
    return math.sqrt(total)
