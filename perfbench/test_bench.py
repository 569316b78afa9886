"""Tests of the benchmark itself. From the root of a checkout:

    python3 -m pytest perfbench

They run the benchmark as a separate process, the way it is invoked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Work counts that must not depend on timing: the same seed gives the same
# numbers, so a change in them means different work, not faster work.
REPEATED = ("analysis.events", "analysis.sim_cycles", "transforms.bound_actors",
            "transforms.bound_channels")


def bench(cwd: Path, workload: str, seed: int, trace: int, seconds: float = 0.1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs(workload):
    first = result(bench(ROOT, workload, 7, 1))
    second = result(bench(ROOT, workload, 7, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["name"] in REPEATED or m["name"].endswith((".calls", ".errors"))]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    # Long enough for two rounds of every workload, so job_tail_ms has the
    # eleven jobs it needs.
    run = result(bench(ROOT, workload, 3, 0, seconds=12))
    assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
    assert set(run["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in run["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, WORKLOADS[0], 1, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

