"""Run the benchmark with a delay injected around one entry point.

Test-only: the program is left untouched; the wrapper is installed in
this interpreter before ``run.py`` starts, so the benchmark's own
wrappers sit outside it, like around any other slow implementation::

    python3 perfbench/tests/slowdown.py TARGET FACTOR perfbench/run.py ARGS...

``TARGET`` is ``run_dissemination`` (as the reliability sweep calls it)
or ``GroupRuntime.join``.  Every call busy-waits ``FACTOR`` times its
own duration after it returns, so 0.3 makes the layer 30% slower.
"""

from __future__ import annotations

import functools
import runpy
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


def delayed(fn, factor: float):
    @functools.wraps(fn)
    def slow(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            until = time.perf_counter() + factor * (time.perf_counter() - started)
            while time.perf_counter() < until:
                pass

    return slow


def main() -> None:
    target, factor = sys.argv[1], float(sys.argv[2])
    if target == "run_dissemination":
        import repro.bench.figures as figures

        figures.run_dissemination = delayed(figures.run_dissemination, factor)
    elif target == "GroupRuntime.join":
        from repro.sim import GroupRuntime

        GroupRuntime.join = delayed(GroupRuntime.join, factor)
    else:
        raise SystemExit(f"error: unknown target {target!r}")
    sys.argv = sys.argv[3:]
    runpy.run_path(sys.argv[0], run_name="__main__")


if __name__ == "__main__":
    main()
