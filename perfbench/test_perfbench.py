"""Self-test of the benchmark: every workload at minimal length.

    python3 -m pytest -q perfbench

Takes a few minutes: each workload runs once untraced and twice traced.
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
EXACT_UNITS = ("count", "bytes")


def run(root, workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc


def result_of(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"]), m["name"]
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # failed_frac is 0 on working code


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(workload, 0)
    check_metrics(result, BENCHMARK["end_to_end"])
    for name in ("setup_s", "run_p50_s", "run_tail_s", "runs_per_s"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result_of(workload, 1), result_of(workload, 1)
    for result in (first, second):
        check_metrics(result, BENCHMARK["per_layer"])
    for m in BENCHMARK["per_layer"]:
        if m["unit"] in EXACT_UNITS:
            assert first["metrics"][m["name"]] == \
                second["metrics"][m["name"]], m["name"]


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_host_probe_stops():
    with hostspeed.HostSpeed(ROOT) as host:
        host.sample()
        host.sample()
    assert host.proc.returncode == 0
    assert len(host.samples) == 2 and host.factor() > 0
