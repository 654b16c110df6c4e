"""Smoke test of the benchmark at tiny trial counts.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TRIALS = {"single_family": 300, "type1_m4": 200, "type2_m4": 200, "per_trial_family": 3}
FAMILY_ROWS = 14

# traced counts per call: (sinr.schedules, filters.builds, model.spreading_draws)
EXPECTED = {
    "single_family": (1, FAMILY_ROWS, 1),
    "type1_m4": (0, 4, 4),
    "type2_m4": (0, 0, 4),
    "per_trial_family": (3, 3 * FAMILY_ROWS, 3),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--trials", str(TRIALS[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_metrics_match(metrics: dict, spec: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    result = result_of(run_bench(workload, 0))
    assert_metrics_match(result["metrics"], SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_are_exact(workload):
    result = result_of(run_bench(workload, 1))
    metrics = result["metrics"]
    assert_metrics_match(metrics, SPEC["per_layer"])
    count = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    rows = FAMILY_ROWS if "family" in workload else 1
    schedules, builds, draws = EXPECTED[workload]
    assert count["sinr.schedules"] == schedules
    assert count["filters.builds"] == builds
    assert sum(v for k, v in count.items() if k.startswith("filters.builds.")) == builds
    assert count["model.spreading_draws"] == draws
    assert count["simulate.trials"] == TRIALS[workload]
    assert count["simulate.blocks"] == 1
    assert count["simulate.nonconv"] == 0
    assert count["simulate.exact_rows"] == rows


def test_exits_nonzero_without_the_package():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("type1_m4", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
