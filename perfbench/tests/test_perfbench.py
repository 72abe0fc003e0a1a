"""The benchmark's own tests: toy-scale smoke runs and injected slowdowns.

Run from the repository root (a few minutes on 2 CPUs)::

    python3 -m pytest perfbench/tests -q

Every run is a subprocess of ``perfbench/run.py`` at a small subgroup
size, so the program is exercised exactly as the benchmark drives it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((BENCH / "workloads.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
TOY = 5


def bench(workload, trace, seconds=2.0, arity=TOY, seed=3, slow=None, cwd=ROOT):
    """One benchmark run; ``slow`` = (target, factor) injects a delay."""
    command = [sys.executable]
    if slow is not None:
        command += [str(BENCH / "tests" / "slowdown.py"), slow[0], str(slow[1])]
    command += [str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--arity", str(arity)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def values(result):
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_design_matches_benchmark_spec():
    assert list(DESIGN["workloads"]) == NAMES
    layers = {m["name"] for m in SPEC["per_layer"]}
    ends = set(BOUNDS)
    for design in DESIGN["workloads"].values():
        assert set(design["exercises"]) <= layers
    for prediction in DESIGN["predictions"]:
        assert set(prediction["layer"]) <= layers
        assert set(prediction["moves"]) <= ends
        assert set(prediction["on"]) | set(prediction["no_change_on"]) <= set(NAMES)
    predicted = {name for p in DESIGN["predictions"] for name in p["layer"]}
    assert predicted == layers


@pytest.mark.parametrize("workload", NAMES)
def test_toy_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, value in values(result).items():
        assert math.isfinite(value) and value > 0, name


@pytest.mark.parametrize("workload", NAMES)
def test_toy_traced_run_emits_every_per_layer_metric(workload):
    result = result_of(bench(workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    got = values(result)
    assert all(math.isfinite(value) for value in got.values())
    for name in DESIGN["workloads"][workload]["exercises"]:
        if name != "obs.trace_overhead_frac":  # a difference: any sign
            assert got[name] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_same_seed_same_quality():
    first, second = (values(result_of(bench("live_churn", 0, seconds=1))) for __ in range(2))
    for name in ("delivery_ratio", "false_reception_ratio", "messages_per_delivery"):
        assert first[name] == second[name]


# -- injected slowdowns: only the predicted metric/workload pairs move ---------

SLOW_ARITY = 8
SLOW_SECONDS = 4.0


def moved(base, slow, name, at_least):
    return slow[name] >= base[name] * (1.0 + at_least)


def unmoved(base, slow, name):
    return abs(slow[name] - base[name]) <= BOUNDS[name] * base[name]


def pair(workload, trace, slow):
    base = values(result_of(bench(workload, trace, SLOW_SECONDS, SLOW_ARITY)))
    slowed = values(result_of(bench(workload, trace, SLOW_SECONDS, SLOW_ARITY, slow=slow)))
    return base, slowed


def test_engine_delay_moves_sweep_static_only():
    delay = ("run_dissemination", 0.3)
    base, slow = pair("sweep_static", 1, delay)
    assert moved(base, slow, "sim.engine.run_ms_p50", 0.15)
    base, slow = pair("sweep_static", 0, delay)
    # The engine is about half of a trial, so the op moves by about half
    # the delay: less than the op_ms_p50 bound, well above run noise.
    assert moved(base, slow, "op_ms_p50", 0.08)
    base, slow = pair("live_stream", 0, delay)
    for name in ("op_ms_p50", "op_ms_p90", "ops_per_s"):
        assert unmoved(base, slow, name), name


def test_join_delay_moves_live_churn_only():
    # Joins are the cheapest change, so a 30% delay leaves the median
    # change inside the update_interest cluster; tripling them moves it.
    delay = ("GroupRuntime.join", 2.0)
    base, slow = pair("live_churn", 1, delay)
    assert moved(base, slow, "membership.join_ms_p50", 1.0)
    assert moved(base, slow, "membership.change_ms_p50", 0.2)
    base, slow = pair("sweep_static", 0, delay)
    for name in ("op_ms_p50", "ops_per_s"):
        assert unmoved(base, slow, name), name
