"""End-to-end runs of ``run.py``: exact counts, result shape, refusal without a program.

Each traced run builds its workload cold, so this module takes a few
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("paper-figures", "retrain-campaign", "sampled-scaleout")


def _run(cwd: Path, workload: str, seed: int, trace: int, timeout: int = 600):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False,
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_between_runs_of_one_seed(workload):
    first, second = (_result(_run(ROOT, workload, seed=11, trace=1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(first["metrics"]) == {entry["name"] for entry in definition["per_layer"]}
    for name in layers.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run(ROOT, "paper-figures", seed=2009, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 9
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in definition["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "paper-figures", seed=1, trace=0, timeout=180)
    assert completed.returncode != 0
    assert "{" not in completed.stdout
