"""Tiny-size runs of every workload through the real command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness.report import END_TO_END, TRACED

REPO = Path(__file__).resolve().parents[2]
RUN = REPO / "perfbench" / "run.py"


def _run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [("batch", 0), ("serve-hot", 0), ("serve-unique", 0), ("batch", 1), ("serve-unique", 1)],
)
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = TRACED if trace else END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == table[name][0]
        assert isinstance(metric["value"], float)


def test_no_program_means_no_result(tmp_path):
    """With only the benchmark's own files present the run fails cleanly."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
