"""Smoke check of the benchmark: every workload at its smallest size (one
cycle, default seed), untraced and traced.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], report["errors"]
    assert report["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert report["digest_checked"]
    return report, result


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = result_of(run(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["tail_samples"] > 10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    _, result = result_of(run(workload, 1))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if workload == "q_reflect":
        assert result["metrics"]["field.gcd.calls"]["value"] == 0


def test_layer_map_names_reported_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in json.loads((BENCH / "layer_map.json").read_text())["layers"]:
        assert set(entry["metrics"]) <= per_layer
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) <= set(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
