"""Timing for the benchmark: host-speed normalisation and span recording.

**Host speed.**  The machines this benchmark runs on share their cores
and memory with other tenants, and their speed drifts by 25-50% over
tens of seconds: the same op, repeated, takes 23 ms for a while and
then 44 ms.  CPU time drifts the same way, so it is no cure.
:class:`HostSpeed` times a fixed kernel right before every op: a chase
of dependent loads through a random cycle over 16 MB, which is
memory-latency bound like the protocol's pointer-heavy object graphs.
Over 6-second windows its time tracked the time of a sweep trial, a
group build and a runtime round with a log-log slope of 1.0-1.1 (a
dict-insert kernel tracked them with slope 0.5, over-correcting).
``factor`` is the median of the last five kernel times over
:data:`REFERENCE_MS`, and every time the benchmark reports is the
measured wall time divided by the factor in force when it was taken:
the time on a host where the kernel takes exactly ``REFERENCE_MS``.
The raw kernel median is reported too (``host.reference_ms_p50``).

**Spans.**  The traced run wraps a fixed list of public functions with
recorders for its duration only (:func:`instrument`); nothing inside
``src/`` is changed.  Each span keeps its name, start, end, parent span
and the id of the op it belongs to.  Spans stay in memory and are
written out once, at the end of the run (:meth:`SpanRecorder.write`).
A span's *self time* is its duration minus the part its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy
import repro.bench.figures as figures
import repro.net
from repro.sim import GroupRuntime, PmcastGroup

#: The kernel time that defines factor 1.0 (the kernel's time on a
#: quiet 2-CPU x86 host running Python 3.11).
REFERENCE_MS = 10.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method), 0.0 with no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class HostSpeed:
    """How slow the host runs right now, relative to :data:`REFERENCE_MS`."""

    #: Slots in the chased cycle (4-byte each) and loads per kernel run.
    SLOTS = 1 << 22
    LOADS = 60000

    def __init__(self) -> None:
        order = numpy.random.default_rng(0).permutation(self.SLOTS).astype(numpy.int32)
        cycle = numpy.empty(self.SLOTS, dtype=numpy.int32)
        cycle[order] = numpy.roll(order, -1)
        self._next = array("i", cycle.tobytes())
        self.samples: List[float] = []
        self.factor = 1.0

    def calibrate(self) -> float:
        """Time the kernel once; return the updated factor."""
        slot, cycle = 0, self._next
        started = time.perf_counter()
        for __ in range(self.LOADS):
            slot = cycle[slot]
        self.samples.append((time.perf_counter() - started) * 1000.0)
        self.factor = statistics.median(self.samples[-5:]) / REFERENCE_MS
        return self.factor


@dataclass
class Span:
    id: int
    op: Optional[int]
    parent: Optional[int]
    name: str
    start: float
    factor: float
    end: float = 0.0
    children_s: float = 0.0

    @property
    def seconds(self) -> float:
        """Duration at reference host speed."""
        return (self.end - self.start) / self.factor

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children_s


class SpanRecorder:
    """An in-memory span store with an op id shared by an op's spans."""

    def __init__(self, speed: HostSpeed) -> None:
        self.records: List[Span] = []
        self.op: Optional[int] = None
        self.speed = speed
        self._open: List[Span] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._open[-1] if self._open else None
        span = Span(len(self.records), self.op, parent and parent.id, name,
                    time.perf_counter(), self.speed.factor)
        self.records.append(span)
        self._open.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.children_s += span.seconds

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def add(self, name: str, parent: Span, start: float, end: float) -> None:
        """Record a span measured elsewhere as a child of ``parent``."""
        span = Span(len(self.records), parent.op, parent.id, name, start, parent.factor, end)
        self.records.append(span)
        parent.children_s += span.seconds

    def durations(self, name: str, self_time: bool = False) -> List[float]:
        return [s.self_seconds if self_time else s.seconds
                for s in self.records if s.name == name]

    def p50_ms(self, name: str, self_time: bool = False) -> float:
        return percentile(self.durations(name, self_time), 50) * 1000.0

    def table(self) -> List[str]:
        """One line per span name: calls, total s, self s, median ms."""
        lines = [f"{'span':<28}{'calls':>8}{'total_s':>11}{'self_s':>11}{'p50_ms':>11}"]
        for name in dict.fromkeys(s.name for s in self.records):
            total = sum(self.durations(name))
            own = sum(self.durations(name, self_time=True))
            lines.append(f"{name:<28}{len(self.durations(name)):>8}{total:>11.3f}"
                         f"{own:>11.3f}{self.p50_ms(name):>11.3f}")
        return lines

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.records:
                handle.write(json.dumps({"id": s.id, "op": s.op, "parent": s.parent,
                                         "name": s.name, "start": s.start, "end": s.end,
                                         "host_factor": s.factor}) + "\n")


#: (owner, attribute, span name) of every wrapped public entry point.
ENTRY_POINTS = (
    (figures, "run_dissemination", "sim.engine.run"),
    (repro.net, "run_sim_dissemination", "net.run"),
    (GroupRuntime, "step", "runtime.step"),
    (GroupRuntime, "join", "runtime.join"),
    (GroupRuntime, "leave", "runtime.leave"),
    (GroupRuntime, "update_interest", "runtime.update_interest"),
)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap the entry points with span recorders; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, __ in ENTRY_POINTS]
    build = PmcastGroup.__dict__["build"]
    try:
        for owner, attr, name in ENTRY_POINTS:
            setattr(owner, attr, recorder.wrap(name, owner.__dict__[attr]))
        PmcastGroup.build = classmethod(recorder.wrap("membership.group_build", build.__func__))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        PmcastGroup.build = build
