"""Output checks: a brute-force oracle for served answers, exact
comparison for batch jobs.

The serve oracle uses the served distance arithmetic: per reference,
``sqrt(dx*dx + dy*dy)`` accumulated axis by axis in float64 (the
expression the dual-tree rules use, so equal inputs give equal bits).
Neighbors are ranked by ``(distance, id)``, and a count includes a
reference at distance ``<= radius``.  Every answer of a run is checked;
equal queries share one oracle evaluation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from harness.inputs import COUNT_RADIUS, KNN_K, Query

#: Query points per vectorized oracle block.
_BLOCK = 64


def _distances(references: np.ndarray, points: np.ndarray) -> np.ndarray:
    total = np.zeros((len(points), len(references)))
    for axis in range(references.shape[1]):
        diff = points[:, None, axis] - references[None, :, axis]
        total += diff * diff
    return np.sqrt(total)


def _nearest(row: np.ndarray, k: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The ``k`` smallest ``(distance, id)`` pairs of one distance row."""
    k = min(k, len(row))
    kth = np.partition(row, k - 1)[k - 1]
    candidates = np.flatnonzero(row <= kth)  # ascending ids
    order = candidates[np.argsort(row[candidates], kind="stable")][:k]
    return tuple(int(i) for i in order), tuple(float(row[i]) for i in order)


def expected_answers(references: np.ndarray, queries: Sequence[Query]) -> dict:
    """Oracle answer of every distinct query, keyed by the query.

    nn -> (id, distance); knn -> (ids, distances); count -> count.
    """
    distinct = list(dict.fromkeys(queries))
    answers: dict = {}
    for start in range(0, len(distinct), _BLOCK):
        block = distinct[start : start + _BLOCK]
        dist = _distances(references, np.array([q.point for q in block]))
        for query, row in zip(block, dist):
            if query.kind == "nn":
                ids, dists = _nearest(row, 1)
                answers[query] = (ids[0], dists[0])
            elif query.kind == "knn":
                answers[query] = _nearest(row, KNN_K)
            else:
                answers[query] = int(np.count_nonzero(row <= COUNT_RADIUS))
    return answers


def check_answers(
    references: np.ndarray, pairs: Sequence[tuple[Query, object]]
) -> list[int]:
    """Indices of the ``(query, answer)`` pairs that disagree with the oracle.

    Answers are in :func:`expected_answers` form; equality is exact.
    """
    expected = expected_answers(references, [query for query, _ in pairs])
    return [
        index
        for index, (query, answer) in enumerate(pairs)
        if answer != expected[query]
    ]


# ---------------------------------------------------------------------------
# batch


def matmul_tolerance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise bound on the gap between two summation orders of ``a @ b``.

    Each order is within gamma_p |a||b| of the exact product (p terms per
    dot product), so two orders differ by at most twice that.
    """
    p = a.shape[1]
    eps = np.finfo(np.float64).eps
    gamma = p * eps / (1.0 - p * eps)
    return 2.0 * gamma * (np.abs(a) @ np.abs(b))


def batch_mismatch(
    job: str, output: object, reference: object, tolerance: np.ndarray | None = None
) -> str | None:
    """Why ``output`` is wrong for ``job``, or None when it is right.

    MM is compared elementwise within :func:`matmul_tolerance` (its
    backends sum dot products in different orders); every other job's
    output is a digest or an exact number and must be equal.
    """
    if job.startswith("MM"):
        output = np.asarray(output)
        reference = np.asarray(reference)
        if output.shape != reference.shape:
            return f"shape {output.shape} != {reference.shape}"
        gap = np.abs(output - reference)
        bad = int(np.count_nonzero(~(gap <= tolerance)))
        return f"{bad} entries beyond tolerance" if bad else None
    if output != reference:
        return f"{output!r} != {reference!r}"
    return None
