"""Smoke test of the benchmark at tiny sizes.

Runs every workload of BENCHMARK.json untraced and traced, with the oracle,
and checks the result line's format, metric names and units.  It asserts no
timings.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = (
    "run_s", "setup_s", "fiber_pts_per_s", "batch_ms_p50", "batch_ms_p90", "probes_per_s",
    "peak_rss_mb", "l1_err", "overshoot", "q_relerr_max", "fail_frac",
)


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    res = _run(ROOT, workload, trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, res.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for name in REPORTED:
        assert f"  {name} " in res.stdout, f"{name} missing from the report"
    if trace:
        assert "traced path bit-identical to untraced: True" in res.stdout


def test_fails_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    res = _run(tmp_path, SPEC["workloads"][0]["name"], 0, smoke=False)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
