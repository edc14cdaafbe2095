"""CLI tests for the ``lint`` subcommand and transform/lint integration."""

import json


from repro.transform.__main__ import main

TEMPLATE = '''
from repro.transform import outer_recursion, inner_recursion

@outer_recursion(inner="inner")
def outer(o, i):
    if o is None:
        return
    inner(o, i)
    outer(o.left, i)
    outer(o.right, i)

@inner_recursion
def inner(o, i):
    if {guard}:
        return
    {work}
    inner(o, i.left)
    inner(o, i.right)
'''

SAFE = TEMPLATE.format(guard="i is None", work="o.data = o.data + i.data")
UNSAFE = TEMPLATE.format(guard="i is None", work="i.data = i.data + o.data")
ADAPTIVE = TEMPLATE.format(
    guard="i is None or i.data > o.best",
    work="o.best = min(o.best, i.data)",
)


def write(tmp_path, source, name="case.py"):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


class TestLintExitCodes:
    def test_safe_source_exits_zero(self, tmp_path, capsys):
        assert main(["lint", write(tmp_path, SAFE)]) == 0
        out = capsys.readouterr().out
        assert "verdict: interchange-safe" in out

    def test_unsafe_source_exits_four(self, tmp_path, capsys):
        assert main(["lint", write(tmp_path, UNSAFE)]) == 4
        out = capsys.readouterr().out
        assert "error[TW010]" in out
        assert "verdict: unsafe" in out

    def test_adaptive_source_exits_five(self, tmp_path, capsys):
        assert main(["lint", write(tmp_path, ADAPTIVE)]) == 5
        out = capsys.readouterr().out
        assert "warning[TW023]" in out
        assert "verdict: needs-dynamic-check" in out

    def test_unparsable_source_exits_three(self, tmp_path, capsys):
        assert main(["lint", write(tmp_path, "def broken(:\n")]) == 3
        assert "TW001" in capsys.readouterr().out

    def test_unannotated_source_exits_one(self, tmp_path, capsys):
        assert main(["lint", write(tmp_path, "def f(o, i):\n    pass\n")]) == 1
        assert "TW002" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "ghost.py")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_mismatched_name_flags_exit_two(self, tmp_path, capsys):
        assert main(["lint", write(tmp_path, SAFE), "--outer", "outer"]) == 2


class TestLintOptions:
    def test_json_payload(self, tmp_path, capsys):
        assert main(["lint", write(tmp_path, UNSAFE), "--json"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        assert payload["kind"] == "schedule-safety"
        assert payload["verdict"] == "unsafe"
        assert payload["parallel_safe"] is False
        assert payload["counts"]["errors"] >= 1
        assert payload["counts"]["suppressed"] == 0
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "TW010" in codes
        assert payload["writes"][0]["path"] == "i.data"

    def test_json_counts_suppressions(self, tmp_path, capsys):
        source = TEMPLATE.format(
            guard="i is None",
            work="mystery(o, i)  # lint: ignore[TW013]",
        )
        assert main(["lint", write(tmp_path, source), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["suppressed"] == 1
        assert payload["suppressed"][0]["code"] == "TW013"

    def test_explicit_names(self, tmp_path, capsys):
        unannotated = SAFE.replace("@outer_recursion(inner=\"inner\")\n", "")
        unannotated = unannotated.replace("@inner_recursion\n", "")
        path = write(tmp_path, unannotated)
        assert main(["lint", path, "--outer", "outer", "--inner", "inner"]) == 0

    def test_assume_pure_flag(self, tmp_path):
        source = TEMPLATE.format(guard="i is None", work="o.data = dist(o, i)")
        path = write(tmp_path, source)
        assert main(["lint", path]) == 5
        assert main(["lint", path, "--assume-pure", "dist"]) == 0


class TestTransformGating:
    def test_transform_refuses_unsafe_source(self, tmp_path, capsys):
        assert main([write(tmp_path, UNSAFE)]) == 4
        captured = capsys.readouterr()
        assert "TW010" in captured.err
        assert captured.out == ""  # no code generated

    def test_allow_unproven_overrides_refusal(self, tmp_path, capsys):
        assert main([write(tmp_path, UNSAFE), "--allow-unproven"]) == 0
        captured = capsys.readouterr()
        assert "def outer_twisted(" in captured.out
        assert "TW010" in captured.err  # findings still reported

    def test_no_lint_skips_analysis(self, tmp_path, capsys):
        assert main([write(tmp_path, UNSAFE), "--no-lint"]) == 0
        captured = capsys.readouterr()
        assert "def outer_twisted(" in captured.out
        assert "TW010" not in captured.err

    def test_adaptive_source_transforms_with_warning(self, tmp_path, capsys):
        assert main([write(tmp_path, ADAPTIVE)]) == 0
        captured = capsys.readouterr()
        assert "def outer_twisted(" in captured.out
        assert "TW023" in captured.err

    def test_explicit_transform_subcommand(self, tmp_path, capsys):
        assert main(["transform", write(tmp_path, SAFE)]) == 0
        assert "def outer_swapped(" in capsys.readouterr().out

    def test_transform_json_includes_lint_report(self, tmp_path, capsys):
        assert main([write(tmp_path, SAFE), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outer"] == "outer"
        assert payload["lint"]["verdict"] == "interchange-safe"
        assert "def outer_twisted(" in payload["source"]

    def test_transform_json_no_lint_is_null(self, tmp_path, capsys):
        assert main([write(tmp_path, SAFE), "--json", "--no-lint"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lint"] is None


class TestModuleSmoke:
    def test_module_invocation_via_subprocess(self, tmp_path):
        """The documented entry point works end to end."""
        import subprocess
        import sys

        path = write(tmp_path, SAFE)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.transform", "lint", path],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "interchange-safe" in completed.stdout


class TestLintSpecCLI:
    def test_single_proven_benchmark_exits_zero(self, capsys):
        assert main(["lint-spec", "--benchmark", "TJ"]) == 0
        out = capsys.readouterr().out
        assert "verdict: soa-safe" in out

    def test_full_suite_exits_five_on_nn(self, capsys):
        """NN's order-sensitive update is the one designed hole, so
        the whole-suite run reports needs-dynamic-check (exit 5)."""
        assert main(["lint-spec", "--scale", "0.02"]) == 5
        out = capsys.readouterr().out
        assert "TW108" in out
        assert "verdict: needs-dynamic-check" in out
        assert "verdict: soa-safe" in out  # TJ/MM still proven

    def test_unknown_benchmark_exits_two(self, capsys):
        assert main(["lint-spec", "--benchmark", "XX"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_json_suite_payload(self, capsys):
        assert main(["lint-spec", "--scale", "0.02", "--json"]) == 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        assert payload["kind"] == "spec-conformance-suite"
        specs = payload["specs"]
        assert len(specs) == 7
        for spec in specs:
            assert spec["kind"] == "spec-conformance"
            assert spec["schema_version"] == 2
            assert set(spec["backends"]) == {"recursive", "batched", "soa"}
            assert spec["counts"]["suppressed"] == 0
        verdicts = {spec["verdict"] for spec in specs}
        assert "needs-dynamic-check" in verdicts
        assert "soa-safe" in verdicts


class TestLintLowerCLI:
    def test_tj_exits_zero_fully_certified(self, capsys):
        assert main(["lint-lower", "--benchmark", "TJ"]) == 0
        out = capsys.readouterr().out
        assert "lower: lowerable" in out
        assert "independence: independent" in out

    def test_mm_exits_zero_and_states_its_precondition(self, capsys):
        assert main(["lint-lower", "--benchmark", "MM"]) == 0
        out = capsys.readouterr().out
        assert "lower: lowerable" in out
        assert "precondition:" in out
        assert "outer.data" in out

    def test_full_suite_exits_five_on_the_dualtree_gap(self, capsys):
        # PC/NN/KNN/VP/KDE have no SoA kernel yet (TW208), so the
        # suite verdict is needs-runtime-check — exit 5, not failure.
        assert main(["lint-lower", "--scale", "0.02"]) == 5
        out = capsys.readouterr().out
        assert "TW208" in out

    def test_unknown_benchmark_exits_two(self, capsys):
        assert main(["lint-lower", "--benchmark", "XX"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_json_suite_payload(self, capsys):
        assert main(["lint-lower", "--scale", "0.02", "--json"]) == 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        assert payload["kind"] == "lowerability-suite"
        specs = payload["specs"]
        assert len(specs) == 7
        for spec in specs:
            assert spec["kind"] == "lowerability"
            assert spec["schema_version"] == 2
            assert spec["counts"]["suppressed"] == 0
        by_name = {spec["spec"].split("(")[0]: spec for spec in specs}
        assert by_name["TJ"]["lower"] == "lowerable"
        assert by_name["TJ"]["independence"] == "independent"
        assert by_name["MM"]["lower"] == "lowerable"
        assert by_name["MM"]["independence"] == "independent"
        assert by_name["PC"]["lower"] == "needs-runtime-check"


class TestAnalyzerErrorJSON:
    """A crashed analyzer must still emit valid JSON under --json."""

    @staticmethod
    def _install_broken_case(monkeypatch):
        import types

        import repro.bench.workloads as workloads

        # A deliberately broken spec factory: make_spec() hands the
        # analyzer something that is not a spec at all.
        broken = types.SimpleNamespace(name="BROKEN", make_spec=lambda: None)
        monkeypatch.setattr(
            workloads, "wallclock_cases", lambda scale=1.0: [broken]
        )

    def test_lint_spec_crash_emits_analyzer_error_json(
        self, monkeypatch, capsys
    ):
        self._install_broken_case(monkeypatch)
        assert main(["lint-spec", "--json"]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["schema_version"] == 2
        assert payload["kind"] == "analyzer-error"
        assert payload["error"]["type"]
        assert payload["diagnostics"] == []
        assert payload["counts"] == {
            "errors": 0,
            "warnings": 0,
            "suppressed": 0,
        }
        assert "Traceback" in captured.err

    def test_lint_lower_crash_emits_analyzer_error_json(
        self, monkeypatch, capsys
    ):
        self._install_broken_case(monkeypatch)
        assert main(["lint-lower", "--json"]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["schema_version"] == 2
        assert payload["kind"] == "analyzer-error"
        assert "Traceback" in captured.err

    def test_lint_crash_emits_analyzer_error_json(
        self, monkeypatch, capsys, tmp_path
    ):
        import repro.transform.__main__ as cli

        def boom(*args, **kwargs):
            raise RuntimeError("injected analyzer crash")

        monkeypatch.setattr(cli, "lint_source", boom)
        assert main(["lint", write(tmp_path, SAFE), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "analyzer-error"
        assert payload["error"]["type"] == "RuntimeError"
        assert payload["error"]["message"] == "injected analyzer crash"

    def test_lint_crash_without_json_keeps_stdout_empty(
        self, monkeypatch, capsys, tmp_path
    ):
        import repro.transform.__main__ as cli

        def boom(*args, **kwargs):
            raise RuntimeError("injected analyzer crash")

        monkeypatch.setattr(cli, "lint_source", boom)
        assert main(["lint", write(tmp_path, SAFE)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "analyzer failed" in captured.err
