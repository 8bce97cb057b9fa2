"""Self-test of the benchmark harness at tiny size.

    python3 -m pytest perfbench/test_harness.py -q

Runs every workload once untraced and once traced, checks that each metric
named in BENCHMARK.json is emitted with its unit, and that a deliberately
wrong oracle value is counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, *extra: str) -> dict:
    # --seconds 0: the fewest rounds a run can hold, so two runs attempt the same ops
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_wrong_oracle(workload):
    clean = bench(workload, 0)
    assert_metrics(clean, SPEC["end_to_end"])
    assert clean["correct"]
    tampered = bench(workload, 0, "--tamper-op", "0")
    assert tampered["attempted"] == clean["attempted"]
    assert tampered["failed"] == clean["failed"] + 1
    assert not tampered["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    assert_metrics(bench(workload, 1), SPEC["per_layer"])


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
