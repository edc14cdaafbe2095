"""The TW30x locality pass: pinned fixtures, schema, cache, mutations.

The benchmark verdicts asserted here are the same fixtures the modules
ship (``LOCALITY_VERDICT`` / ``LOCALITY_VERDICTS`` next to each spec's
``LOWER_VERDICT``): drift in the analyzer or in a workload's default
size must show up as a diff against a checked-in expectation, never as
a silent re-prediction.
"""

import gc

import numpy as np
import pytest

from repro.core.spec import NestedRecursionSpec
from repro.memory import CacheModel
from repro.spaces.trees import balanced_tree
from repro.transform.lint import locality
from repro.transform.lint.locality import (
    TRANSFORMS,
    LocalityVerdict,
    lint_locality,
)

#: Expected verdicts per benchmark, straight from the shipped fixtures.
def expected_verdicts():
    from repro.dualtree.algorithms import LOCALITY_VERDICTS
    from repro.dualtree.kde import LOCALITY_VERDICT as KDE_VERDICT
    from repro.kernels.gram import LOCALITY_VERDICT as GT_VERDICT
    from repro.kernels.matmul import LOCALITY_VERDICT as MM_VERDICT
    from repro.kernels.treejoin import LOCALITY_VERDICT as TJ_VERDICT

    return {
        "TJ": TJ_VERDICT,
        "MM": MM_VERDICT,
        "GT": GT_VERDICT,
        "KDE": KDE_VERDICT,
        **LOCALITY_VERDICTS,
    }


@pytest.fixture(autouse=True)
def fresh_cache():
    locality.clear_cache()
    yield
    locality.clear_cache()


@pytest.fixture(scope="module")
def benchmark_reports():
    """One lint-locality run per benchmark at the paper-shaped scale."""
    from repro.bench.workloads import wallclock_cases
    from repro.kernels.gram import GramTable

    locality.clear_cache()
    reports = {}
    for case in wallclock_cases(1.0):
        reports[case.name] = lint_locality(case.make_spec())
    reports["GT"] = lint_locality(GramTable(1024, 1024).make_spec())
    locality.clear_cache()
    return reports


class TestPinnedBenchmarkVerdicts:
    @pytest.mark.parametrize(
        "name", ["TJ", "MM", "PC", "NN", "KNN", "VP", "KDE", "GT"]
    )
    def test_verdicts_match_the_shipped_fixture(self, benchmark_reports, name):
        report = benchmark_reports[name]
        got = {t: str(v) for t, v in report.verdicts.items()}
        assert got == expected_verdicts()[name]

    def test_every_report_names_its_cache_model(self, benchmark_reports):
        for report in benchmark_reports.values():
            assert "TW305" in report.codes()
            assert report.cache_model == CacheModel.paper_default()

    def test_pinned_footprints_at_default_scale(self, benchmark_reports):
        footprints = {
            name: report.footprint_bytes
            for name, report in benchmark_reports.items()
        }
        assert footprints == {
            "TJ": 48000,
            "MM": 39936,
            "PC": 65504,
            "NN": 98256,
            "KNN": 49104,
            "VP": 49104,
            "KDE": 28616,
            "GT": 49152,
        }

    def test_regular_specs_have_full_reuse(self, benchmark_reports):
        for name in ("TJ", "MM", "GT"):
            assert benchmark_reports[name].reuse_factor == 1.0

    def test_pc_reuse_comes_from_the_sampled_density(self, benchmark_reports):
        report = benchmark_reports["PC"]
        assert "TW304" in report.codes()
        assert report.reuse_factor is not None
        assert 0.0 < report.reuse_factor < 1.0
        # The density discount is what pulls PC's working set into L1.
        assert report.fitting_level == "L1"

    def test_stateful_truncations_leave_reuse_unknown(self, benchmark_reports):
        for name in ("NN", "KNN", "VP", "KDE"):
            report = benchmark_reports[name]
            assert "TW303" in report.codes()
            assert report.reuse_factor is None
            assert report.has_unknown()

    def test_mm_footprint_counts_the_gathered_matrix_slice(
        self, benchmark_reports
    ):
        assert "array b" in benchmark_reports["MM"].footprint_detail

    def test_json_payload_shape(self, benchmark_reports):
        payload = benchmark_reports["TJ"].to_json()
        assert payload["schema_version"] == 2
        assert payload["kind"] == "locality"
        assert set(payload["verdicts"]) == set(TRANSFORMS)
        assert set(payload) == {
            "schema_version",
            "kind",
            "spec",
            "cache_model",
            "footprint_bytes",
            "footprint_detail",
            "reuse_factor",
            "reuse_detail",
            "effective_footprint_bytes",
            "fitting_level",
            "verdicts",
            "reasons",
            "diagnostics",
            "counts",
        }
        assert payload["cache_model"]["source"] == "paper-xeon"

    def test_render_lists_every_transform(self, benchmark_reports):
        rendered = benchmark_reports["TJ"].render()
        for transform in TRANSFORMS:
            assert f"TJ(1200x1200): {transform}:" in rendered


# --------------------------------------------------------------------
# Synthetic specs: verdict table edges, cache behavior, mutations
# --------------------------------------------------------------------


def payload_spec(num_nodes=15, payload=None, name="loc-test"):
    """A regular spec whose work kernel reads ``i.data``."""
    acc = np.zeros(1)

    def work(o, i):
        acc[0] += i.data

    inner = balanced_tree(num_nodes, data=lambda k: k)
    if payload is not None:
        for node in inner.iter_preorder():
            node.data = payload(node.data)
    return NestedRecursionSpec(
        outer_root=balanced_tree(num_nodes, data=lambda k: k),
        inner_root=inner,
        work=work,
        name=name,
    )


def tiny_model(l1=1024, l2=2048, l3=4096):
    return CacheModel(l1_bytes=l1, l2_bytes=l2, l3_bytes=l3)


class TestVerdictTable:
    def test_l1_resident_set_is_neutral_everywhere_that_blocks(self):
        # 15 nodes x (32 struct + 8 payload) = 600 B, inside a 1 KB L1.
        report = lint_locality(payload_spec(), cache_model=tiny_model())
        assert report.footprint_bytes == 15 * 40
        assert "TW301" in report.codes()
        assert report.verdicts["interchange"] is LocalityVerdict.NEUTRAL
        assert report.verdicts["twist"] is LocalityVerdict.NEUTRAL
        assert report.verdicts["layout:veb"] is LocalityVerdict.NEUTRAL

    def test_l2_sized_set_is_profitable(self):
        # 31 nodes x 40 B = 1240 B: spills the 1 KB L1, fits the 2 KB L2.
        report = lint_locality(
            payload_spec(num_nodes=31), cache_model=tiny_model()
        )
        assert "TW302" in report.codes()
        assert report.verdicts["interchange"] is LocalityVerdict.PROFITABLE
        assert report.verdicts["twist"] is LocalityVerdict.PROFITABLE
        assert report.verdicts["layout:veb"] is LocalityVerdict.PROFITABLE

    def test_beyond_llc_interchange_is_regressive_twist_is_not(self):
        # 127 nodes x 40 B = 5080 B: beyond the 4 KB last-level cache.
        report = lint_locality(
            payload_spec(num_nodes=127), cache_model=tiny_model()
        )
        assert "TW306" in report.codes()
        assert report.verdicts["interchange"] is LocalityVerdict.REGRESSIVE
        assert report.verdicts["twist"] is LocalityVerdict.PROFITABLE

    def test_bfs_layout_is_always_neutral(self):
        for nodes in (15, 31, 127):
            report = lint_locality(
                payload_spec(num_nodes=nodes), cache_model=tiny_model()
            )
            assert report.verdicts["layout:bfs"] is LocalityVerdict.NEUTRAL

    def test_spec_without_kernels_degrades_to_unknown(self):
        spec = payload_spec()
        spec.work = None
        report = lint_locality(spec, cache_model=tiny_model())
        assert "TW300" in report.codes()
        assert all(
            report.verdicts[t] is LocalityVerdict.UNKNOWN for t in TRANSFORMS
        )


class TestMutations:
    """Seeded data defects must flip the verdict (mutation harness)."""

    def certify_baseline(self):
        report = lint_locality(payload_spec(), cache_model=tiny_model())
        assert report.verdicts["interchange"] is LocalityVerdict.NEUTRAL
        locality.clear_cache()

    def test_inflated_payload_dtype_flips_interchange_to_regressive(self):
        self.certify_baseline()
        # Same kernel code, same tree shape — each payload scalar
        # inflated to a 64-element vector (8 B -> 512 B per node).
        spec = payload_spec(payload=lambda k: np.full(64, float(k)))
        report = lint_locality(spec, cache_model=tiny_model())
        assert report.footprint_bytes == 15 * (32 + 512)
        assert "TW306" in report.codes()
        assert report.verdicts["interchange"] is LocalityVerdict.REGRESSIVE

    def test_inflation_to_l2_only_flips_to_profitable(self):
        self.certify_baseline()
        # 8 B -> 64 B per node lands between L1 and L2 instead.
        spec = payload_spec(payload=lambda k: np.full(8, float(k)))
        report = lint_locality(spec, cache_model=tiny_model())
        assert report.footprint_bytes == 15 * (32 + 64)
        assert report.verdicts["interchange"] is LocalityVerdict.PROFITABLE


class TestReportCache:
    def test_same_spec_and_model_share_one_report(self):
        spec = payload_spec()
        first = lint_locality(spec, cache_model=tiny_model())
        assert lint_locality(spec, cache_model=tiny_model()) is first

    def test_clear_cache_forces_a_fresh_report(self):
        spec = payload_spec()
        first = lint_locality(spec, cache_model=tiny_model())
        locality.clear_cache()
        assert lint_locality(spec, cache_model=tiny_model()) is not first

    def test_a_different_cache_model_is_a_different_judgement(self):
        spec = payload_spec()
        small = lint_locality(spec, cache_model=tiny_model())
        large = lint_locality(spec, cache_model=CacheModel.paper_default())
        assert small is not large
        assert large.verdicts["interchange"] is LocalityVerdict.NEUTRAL

    def test_a_dead_root_drops_its_entries(self):
        spec = payload_spec()
        lint_locality(spec, cache_model=tiny_model())
        assert len(locality._REPORT_CACHE) == 1
        assert len(locality._PAYLOAD_CACHE) == 1
        del spec
        gc.collect()
        assert len(locality._REPORT_CACHE) == 0
        assert len(locality._PAYLOAD_CACHE) == 0

    def test_live_entries_are_capped_least_recent_first(self):
        cache = locality._REPORT_CACHE
        specs = [payload_spec() for _ in range(cache.cap + 6)]
        reports = [lint_locality(s, cache_model=tiny_model()) for s in specs]
        assert len(cache) == cache.cap
        assert lint_locality(specs[-1], cache_model=tiny_model()) is reports[-1]
        assert lint_locality(specs[0], cache_model=tiny_model()) is not reports[0]

    def test_oracle_loop_leaves_no_dead_entries(self):
        from repro.serve.protocol import CountQuery, KNNQuery, NNQuery
        from repro.serve.service import QueryService, ServiceConfig
        from repro.spaces.points import clustered_points

        references = clustered_points(256, clusters=4, spread=0.08, seed=1)
        points = clustered_points(120, clusters=4, spread=0.07, seed=3)
        queries = []
        for index, row in enumerate(points):
            point = tuple(float(value) for value in row)
            kind = (NNQuery(point), KNNQuery(point, 3), CountQuery(point, 0.3))
            queries.append(kind[index % 3])
        service = QueryService(references, ServiceConfig(max_batch=16))
        try:
            service.execute_serial(queries)
        finally:
            service.close()
        gc.collect()
        for cache in (locality._REPORT_CACHE, locality._PAYLOAD_CACHE):
            assert len(cache) <= cache.cap
            for refs, *_value in cache._entries.values():
                assert all(ref() is not None for ref in refs)

    def test_task_spec_over_the_same_inner_tree_does_not_rescan(
        self, monkeypatch
    ):
        scanned = []
        genuine = locality._scan_payload_bytes

        def counting(inner_root, attrs):
            scanned.append(inner_root)
            return genuine(inner_root, attrs)

        monkeypatch.setattr(locality, "_scan_payload_bytes", counting)
        spec = payload_spec()
        first = lint_locality(spec, cache_model=tiny_model())
        # The parallel runtime's task specs: same kernels and inner
        # tree, an outer subtree as the root.
        task = NestedRecursionSpec(
            outer_root=spec.outer_root.children[0],
            inner_root=spec.inner_root,
            work=spec.work,
            name=spec.name,
        )
        second = lint_locality(task, cache_model=tiny_model())
        assert second is not first
        assert second.footprint_bytes == first.footprint_bytes
        assert scanned == [spec.inner_root]
