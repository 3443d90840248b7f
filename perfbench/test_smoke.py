"""Smoke test of the benchmark harness: every workload, untraced and traced,
at the shortest length (one round per phase) with every output check on.

    python3 -m pytest perfbench/test_smoke.py -q

It takes about a minute and a half; the verify-expansion rounds dominate.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_passes_its_checks(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # Self times plus the worker threads' overlap make up the wall time.
        assert 99.0 < values["trace.accounted_pct"] < 101.0
    else:
        assert all(v > 0 for v in values.values()), values


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "sim-exact", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
