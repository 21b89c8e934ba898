"""Each workload at minimum size prints every metric that BENCHMARK.json names."""
import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
from conftest import BENCH_DIR

REPO = BENCH_DIR.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*args, cwd=REPO):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_spec_lists_what_the_code_prints():
    assert [w["name"] for w in SPEC["workloads"]] == ["train_tiny", "eval_busy", "route_sp"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    assert SPEC["per_layer"] == layers.per_layer_metrics()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["train_tiny", "eval_busy", "route_sp"])
def test_workload_prints_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "route_sp", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
