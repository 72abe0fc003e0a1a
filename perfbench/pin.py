#!/usr/bin/env python3
"""Regenerate ``pins.json``: per-op outcome digests at the default seed.

Runs every workload at paper scale and ``run.DEFAULT_SEED`` for a fixed
number of batches (more ops than a timed run reaches) and records each
op's digest.  Run from the repository root after a change that is meant
to alter outcomes::

    python3 perfbench/pin.py

It refuses to write pins from a run whose output checks fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Batches pinned per workload: a timed run at paper scale reaches
#: roughly a third of these on a 2-CPU machine.
PIN_BATCHES = {"sweep_static": 15, "async_jitter": 15, "live_stream": 100, "live_churn": 300}


def main() -> int:
    pins = {}
    settings = argparse.Namespace(seed=run.DEFAULT_SEED, arity=None)
    for name in PIN_BATCHES:
        phase = run.run_phase(WORKLOADS[name], settings, 0.0, batches=PIN_BATCHES[name])
        problems = [p for op in phase.ops for p in op.problems] + phase.problems
        if problems:
            print(f"error: {name}: {problems[0]}", file=sys.stderr)
            return 1
        pins[name] = [op.digest for op in phase.ops]
        print(f"{name}: pinned {len(phase.ops)} ops")
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
