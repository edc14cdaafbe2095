"""Serving rule sets: batch-shape robustness of the serial oracle.

The load-bearing claim is the module docstring proof in
``repro.serve.rules``: the rules' answers are a function of the visited
candidate set only, so they are bit-identical no matter how queries are
sliced into batches, what the query-tree leaf size is, or how big the
k-NN merge buffer is.  These tests sweep exactly those axes.
"""

import numpy as np
import pytest

from repro.core.schedules import ORIGINAL
from repro.dualtree.kdtree import build_kdtree
from repro.dualtree.traverser import dual_tree_spec
from repro.errors import SpecError
from repro.serve.rules import PAD_ID, ServeCountRules, ServeKnnRules
from repro.spaces.points import clustered_points

REFERENCES = clustered_points(512, clusters=8, spread=0.08, seed=3)
QUERIES = clustered_points(96, clusters=8, spread=0.08, seed=4)


@pytest.fixture(scope="module")
def reference_tree():
    return build_kdtree(REFERENCES, 8)


def run_count(
    points, reference_tree, radius=0.3, leaf_size=16, backend="auto"
):
    query_tree = build_kdtree(np.array(points, copy=True), leaf_size)
    rules = ServeCountRules(query_tree, reference_tree, radius)
    spec = dual_tree_spec(query_tree, reference_tree, rules, name="SERVE-COUNT")
    ORIGINAL.run(spec, backend=backend)
    return rules.counts.copy()


def run_knn(points, reference_tree, k=5, leaf_size=16, flush=128):
    query_tree = build_kdtree(np.array(points, copy=True), leaf_size)
    rules = ServeKnnRules(
        query_tree, reference_tree, k, flush_candidates=flush
    )
    spec = dual_tree_spec(query_tree, reference_tree, rules, name="SERVE-KNN")
    ORIGINAL.run(spec, backend="auto")
    rules.finalize()
    return rules.ids.copy(), rules.dists.copy()


def serial_counts(reference_tree, radius=0.3):
    return np.concatenate(
        [
            run_count([point], reference_tree, radius, leaf_size=1)
            for point in QUERIES
        ]
    )


class TestCountBatchRobustness:
    def test_batched_counts_match_serial_oracle(self, reference_tree):
        oracle = serial_counts(reference_tree)
        for leaf_size in (1, 4, 16, 96):
            counts = run_count(
                QUERIES, reference_tree, leaf_size=leaf_size
            )
            assert np.array_equal(counts, oracle), leaf_size

    def test_scalar_and_block_score_agree(self, reference_tree):
        batched = run_count(QUERIES, reference_tree, backend="batched")
        recursive = run_count(QUERIES, reference_tree, backend="recursive")
        assert np.array_equal(batched, recursive)

    def test_negative_radius_rejected(self, reference_tree):
        query_tree = build_kdtree(np.array(QUERIES, copy=True), 16)
        with pytest.raises(SpecError, match="negative radius"):
            ServeCountRules(query_tree, reference_tree, -0.1)


class TestKnnBatchRobustness:
    def test_every_flush_chunking_gives_identical_results(
        self, reference_tree
    ):
        # flush_candidates only changes when buffered candidates merge
        # (and thus how stale the pruning bound runs) — never the
        # answer.  flush=1 merges per leaf pair; flush=10**6 merges
        # once at finalize.
        baseline = run_knn(QUERIES, reference_tree, flush=128)
        for flush in (1, 7, 1000000):
            ids, dists = run_knn(QUERIES, reference_tree, flush=flush)
            assert np.array_equal(ids, baseline[0]), flush
            assert np.array_equal(dists, baseline[1]), flush

    def test_batched_knn_matches_serial_oracle(self, reference_tree):
        serial_ids = []
        serial_dists = []
        for point in QUERIES:
            ids, dists = run_knn([point], reference_tree, leaf_size=1)
            serial_ids.append(ids[0])
            serial_dists.append(dists[0])
        for leaf_size in (4, 16, 96):
            ids, dists = run_knn(QUERIES, reference_tree, leaf_size=leaf_size)
            assert np.array_equal(ids, np.array(serial_ids)), leaf_size
            assert np.array_equal(dists, np.array(serial_dists)), leaf_size

    def test_k_one_serves_nn(self, reference_tree):
        ids, dists = run_knn(QUERIES, reference_tree, k=1)
        assert ids.shape == (len(QUERIES), 1)
        assert not np.any(ids == PAD_ID)
        assert np.all(np.isfinite(dists))

    def test_k_larger_than_reference_set_rejected(self, reference_tree):
        query_tree = build_kdtree(np.array(QUERIES, copy=True), 16)
        with pytest.raises(SpecError, match="exceeds"):
            ServeKnnRules(query_tree, reference_tree, len(REFERENCES) + 1)
        with pytest.raises(SpecError, match="k must be >= 1"):
            ServeKnnRules(query_tree, reference_tree, 0)

    def test_ties_break_by_id(self, reference_tree):
        # Duplicate reference points at identical distance: the kept
        # candidate set must prefer smaller ids deterministically.
        points = np.array([[0.5, 0.5]] * 4 + [[0.9, 0.9]])
        tree = build_kdtree(points, 2)
        ids, dists = run_knn([np.array([0.5, 0.5])], tree, k=3, leaf_size=1)
        assert list(ids[0]) == [0, 1, 2]
        assert np.all(dists[0] == 0.0)
