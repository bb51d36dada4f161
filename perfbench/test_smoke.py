"""Smoke check of the benchmark: every workload on a tiny corpus.

    python3 -m pytest perfbench/test_smoke.py

Asserts that each run prints every metric declared in BENCHMARK.json with
its unit and no failure, that the deterministic counts repeat exactly for a
fixed seed, and that the benchmark refuses to run without the package.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DETERMINISTIC = ("nodes", "bound_evals", "root_ratio", "heuristic_ratio")


def _run(workload, seed, trace, cwd=REPO):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--corpus", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out


def _units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_repeat(workload):
    first = _result(_run(workload, 7, 0))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in first["metrics"].values())
    second = _result(_run(workload, 7, 0))
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    out = _result(_run(workload, 7, 1))
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _units("per_layer")
    spans = REPO / ".perfbench-out" / f"spans-{workload}.jsonl"
    assert spans.stat().st_size > 0
    if workload == "cli-files":
        # cmd_solve runs the heuristic itself and solve() runs it again
        assert out["metrics"]["heuristic.calls"]["value"] == 2.0


def test_refuses_to_run_without_the_package():
    bare = REPO / ".perfbench-out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(REPO / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO / "BENCHMARK.json", bare)
        proc = _run(WORKLOADS[0], 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_random_corpora_respect_the_generator_limit():
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    try:
        import corpus
    finally:
        del sys.path[:2]
    for sizes in (corpus.CURVED_Q, corpus.CLI_Q):
        assert max(max(qs) for qs in sizes.values()) <= corpus.RANDOM_Q_MAX
