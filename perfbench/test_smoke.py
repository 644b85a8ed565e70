"""Tiny-size smoke run of the benchmark (about a minute).

Runs every workload at seed 0 with a near-zero time budget (one
operation each, plus set-up, the oracle and the seed-0 cycle baseline
check) and one traced run, and asserts that every metric named in
``BENCHMARK.json`` is present with its unit and that nothing failed::

    python -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300, check=False)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    line = next(line for line in child.stdout.splitlines()
                if " failed_frac " in line)
    assert line.split()[1:4] == ["failed_frac", "0", "fraction"], line
    return result["metrics"], child.stdout


def _assert_metrics(metrics: dict, declared: list) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for metric in declared:
        got = metrics[metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    metrics, stdout = _run(workload, trace=0)
    _assert_metrics(metrics, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert metrics[metric["name"]]["value"] > 0, metric["name"]
    # Metric lines read "<workload> <name> <value> <unit> ...".  The
    # 95th percentile is printed only; the generation metrics exist on
    # accelerator generation only.
    printed = {tuple(line.split()[1:4:2]) for line in stdout.splitlines()}
    assert ("frame_ms_p95", "ms") in printed
    expected = {("generation_s", "s"), ("sim_ms_p50", "ms")}
    assert (expected <= printed) == (workload == "accel_generation")


def test_traced_ledger():
    metrics, _ = _run("steady_frames", trace=1)
    _assert_metrics(metrics, SPEC["per_layer"])
    assert metrics["trace.ops"]["value"] >= 1
    assert 0.0 <= metrics["trace.unattributed_frac"]["value"] < 0.2
    assert metrics["optim.iterations"]["value"] > 0
