"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench/tests -q

Every workload emits every metric ``BENCHMARK.json`` names, with its unit,
in both modes, and the correctness checks run and can fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def _tiny(name, trace):
    return run.benchmark(name, SEED, 0.1, trace, WORKLOADS[name].tiny)


def test_workloads_are_the_declared_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_and_checks_pass(name, trace):
    result, checks = _tiny(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert {c for c, _, _ in checks} >= {"repeatable", "finite", "downdate_oracle"}
    assert result["correct"], checks
    assert result["attempted"] > 0 and result["failed"] == 0
    json.dumps(result)                       # the last line must serialize


def test_traced_counts_repeat():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, _ = _tiny("multilevel-binomial", True)
    second, _ = _tiny("multilevel-binomial", True)
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


def test_reference_check_fails_on_a_wrong_utility():
    name = "multilevel-binomial"
    size = WORKLOADS[name].tiny
    reps, _ = run.measure(name, SEED, 0.1, False, size)
    out = reps[0][0]
    good = {name: {"grid_points": out.grid_points,
                   "utilities": {str(SEED): list(out.utilities)}}}
    bad = {name: {"grid_points": out.grid_points + 1,
                  "utilities": {str(SEED): [u * (1 + 1e-8) for u in out.utilities]}}}
    status = {c: ok for c, ok, _ in run.run_checks(name, SEED, size, reps, good)}
    assert status["grid_points"] and status["reference_utility"]
    status = {c: ok for c, ok, _ in run.run_checks(name, SEED, size, reps, bad)}
    assert not status["grid_points"] and not status["reference_utility"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "ar1-sweep", "--seed", "0",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
