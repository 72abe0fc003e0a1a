#!/usr/bin/env python3
"""The repository benchmark: four paper-scale pmcast workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_static --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it reports every per-layer
metric, measured by a second, traced phase that wraps the program's
public entry points (see ``timing.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs each workload in its own fresh
interpreter, one after another.

The program is imported from ``src/`` next to this directory; nothing
is installed.  Without it the run exits with code 2 and prints no
result.  See ``README.md`` here for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed whose per-op digests are pinned in ``pins.json``.
DEFAULT_SEED = 1
#: Problems printed per run before the rest are only counted.
SHOWN_PROBLEMS = 10


@dataclass
class Phase:
    workload: object
    speed: object
    tracer: object
    setup_s: List[float]
    ops: list
    batches: int
    problems: List[str]


def run_phase(cls, args, seconds: float, traced: bool = False,
              batches: Optional[int] = None, setup_repeats: int = 1) -> Phase:
    """Set up (``setup_repeats`` times), then run a closed loop of batches.

    The loop runs until ``seconds`` have passed and the workload's
    minimum batch count is done, or for exactly ``batches`` batches.
    With ``traced``, the program's entry points carry span recorders
    for the whole phase.
    """
    from timing import HostSpeed, SpanRecorder, instrument

    speed = HostSpeed()
    tracer = SpanRecorder(speed) if traced else None
    with instrument(tracer) if traced else contextlib.nullcontext():
        setups = []
        for repeat in range(setup_repeats):
            workload = cls(args.seed, args.arity, speed, tracer)
            speed.calibrate()
            started = time.perf_counter()
            workload.setup()
            setups.append(workload.elapsed_s(started))
            if repeat + 1 < setup_repeats:
                workload.close()
                del workload
                gc.collect()
        ops: list = []
        index = 0
        try:
            started = time.perf_counter()
            while True:
                if batches is not None:
                    if index >= batches:
                        break
                elif index >= workload.min_batches and time.perf_counter() - started >= seconds:
                    break
                ops.extend(workload.batch(index))
                index += 1
            problems = workload.finish()
        finally:
            workload.close()
    return Phase(workload, speed, tracer, setups, ops, index, problems)


def check_pins(name: str, args, ops: list) -> None:
    """At the default seed and scale, each op's digest must match its pin."""
    if args.seed != DEFAULT_SEED or args.arity is not None:
        return
    pins = json.loads((HERE / "pins.json").read_text()).get(name, [])
    for op, pinned in zip(ops, pins):
        if op.digest != pinned:
            op.problems.append(f"digest {op.digest} != pinned {pinned}")


def end_to_end(phase: Phase) -> Dict[str, float]:
    from timing import percentile

    times = [op.ms for op in phase.ops]
    failed = sum(bool(op.problems) for op in phase.ops)
    return {
        "setup_s": statistics.median(phase.setup_s),
        "ops_per_s": len(phase.ops) / phase.workload.work_s,
        "op_ms_p50": percentile(times, 50),
        "op_ms_p90": percentile(times, 90),
        **phase.workload.quality(),
        "success_frac": 1.0 - failed / max(len(phase.ops), 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(name: str, cls, args, spec: dict) -> tuple:
    """An untraced phase, then the same batches traced; per-layer figures."""
    plain = run_phase(cls, args, args.seconds / 2)
    traced = run_phase(cls, args, 0.0, traced=True, batches=plain.batches)
    workload, recorder = traced.workload, traced.tracer
    if hasattr(workload, "add_timeline_spans"):
        workload.add_timeline_spans(recorder)
    metrics = {metric["name"]: 0.0 for metric in spec["per_layer"]}
    metrics.update(workload.layer_metrics(recorder))
    metrics["obs.trace_overhead_frac"] = workload.work_s / plain.workload.work_s - 1.0
    metrics["host.reference_ms_p50"] = statistics.median(traced.speed.samples)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    recorder.write(str(out_dir / f"spans-{name}-seed{args.seed}.jsonl"))
    print(f"per-layer spans of the traced phase ({traced.batches} batches, "
          "seconds at reference host speed):")
    for line in recorder.table():
        print("  " + line)
    steps = recorder.durations("runtime.step")
    if steps:
        phases = {p: sum(recorder.durations(f"runtime.{p}"))
                  for p in ("fan_out", "exchange", "membership")}
        total = sum(steps)
        gap = total - sum(phases.values())
        print(f"  step() {total:.3f} s = "
              + " + ".join(f"{p} {s:.3f}" for p, s in phases.items())
              + f" + unattributed {gap:.3f} s ({gap / total:.1%})")
    return [plain, traced], metrics


def run_one(name: str, args, spec: dict) -> dict:
    from timing import REFERENCE_MS
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if args.trace:
        phases, metrics = per_layer(name, cls, args, spec)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        phases = [run_phase(cls, args, args.seconds, setup_repeats=cls.setup_repeats)]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for phase in phases:
        check_pins(name, args, phase.ops)
    if not args.trace:
        metrics = end_to_end(phases[0])
    ops = [op for phase in phases for op in phase.ops]
    problems = [f"op {i}: {p}" for i, op in enumerate(ops) for p in op.problems]
    problems += [p for phase in phases for p in phase.problems]
    for problem in problems[:SHOWN_PROBLEMS]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(problems) > SHOWN_PROBLEMS:
        print(f"... and {len(problems) - SHOWN_PROBLEMS} more", file=sys.stderr)
    failed = sum(bool(op.problems) for op in ops)
    samples = [ms for phase in phases for ms in phase.speed.samples]
    print(f"{name} seed={args.seed}: {len(ops)} ops, {failed} failed; host-speed kernel "
          f"median {statistics.median(samples):.2f} ms (times below are at {REFERENCE_MS} ms)")
    for metric, value in metrics.items():
        print(f"  {metric:<40}{value:>16.6g} {units[metric]}")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def run_all(args, spec: dict) -> dict:
    """Each workload in a fresh interpreter, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.arity is not None:
            command += ["--arity", str(args.arity)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            raise SystemExit(f"error: workload {workload['name']} exited {child.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{workload['name']}.{metric}"] = value
    return combined


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--arity", type=int, default=None,
                        help="subgroup size a for every workload (default: paper scale)")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {', '.join(names + ['all'])}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.chdir(ROOT)
    if args.workload == "all":
        result = run_all(args, spec)
    else:
        result = run_one(args.workload, args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
