"""The event-driven dissemination runtime over a virtual clock.

This is the paper's *actual* execution model: every process runs its
own gossip timer; messages travel with a latency bounded below the
gossip period; nothing is globally synchronized.  The round-synchronous
engine is the special case where every timer fires exactly on the
period boundary — and this module's test harness value rests on making
that special case **bit-identical** to the engine:

* same RNG streams, built by the engine's own setup
  (:func:`repro.variants.base.setup_run`, labels
  ``gossip``/``network``/``crash``/``faults``);
* the same dispatch: :func:`repro.sim.engine.run_pmcast` runs an
  eligible run on the compat kernel's event driver
  (:mod:`repro.sim.vector`) and any other on
  :func:`repro.variants.base.run_variant` given a
  :class:`~repro.net.scheduler.Schedule`; both share the round loop's
  trace preamble, crash step and finale;
* timers pop in the engine's active-set insertion order (the clock's
  FIFO tie-break over re-armed and newly armed timers reproduces
  insertion-ordered dict semantics — docs/NETWORK.md walks the proof);
* everything sent at one instant flushes as one ordered batch through
  the same :class:`~repro.sim.network.LossyNetwork` (and
  :class:`~repro.faults.injector.FaultInjector`) calls, so loss draws
  happen in the engine's order;
* the protocol logic itself is the untouched
  :class:`~repro.variants.pmcast.PmcastVariant` hooks — ``begin`` /
  ``crash`` / ``fan_out_one`` / ``receive`` / ``finalize`` — or, on
  the compat kernel, the same firing and reception bodies the round
  loop runs, over member indices.

``run_sim_dissemination(...)`` with the default zero-jitter
:class:`~repro.net.scheduler.RoundSchedule` therefore returns the same
:class:`~repro.sim.metrics.DisseminationReport` and writes the same
``repro.obs.trace/v1`` stream, byte for byte, as
:func:`repro.sim.engine.run_dissemination` — pinned by the golden
equivalence suite.  Jittered and straggler schedules then explore
genuinely asynchronous executions the engine cannot express; with
``event_records=True`` they also emit round-less ``timer_fire``
records keyed by ``time_us``.
"""

from __future__ import annotations

from typing import Optional

from repro.addressing import Address
from repro.config import SimConfig
from repro.faults.plan import FaultPlan
from repro.interests.events import Event
from repro.net.scheduler import RoundSchedule, Schedule
from repro.obs.probes import Observer
from repro.obs.sampling import TraceSampler
from repro.obs.trace import TraceLog
from repro.sim.crashes import CrashSchedule
from repro.sim.engine import run_pmcast
from repro.sim.group import PmcastGroup
from repro.sim.metrics import DisseminationReport
from repro.sim.network import LossyNetwork

__all__ = ["run_sim_dissemination"]


def run_sim_dissemination(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    sim_config: Optional[SimConfig] = None,
    schedule: Optional[Schedule] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    network: Optional[LossyNetwork] = None,
    trace: Optional[TraceLog] = None,
    faults: Optional[FaultPlan] = None,
    sampler: Optional[TraceSampler] = None,
    latency_us: Optional[int] = None,
    event_records: bool = False,
    observer: Optional[Observer] = None,
) -> DisseminationReport:
    """Multicast one event through the group, event by event.

    The mirror of :func:`repro.sim.engine.run_dissemination` with the
    round loop replaced by a discrete-event loop: round boundaries,
    timer fires and transport flushes are events on a virtual clock,
    ordered ``(time, priority, seq)``.  Both go through one dispatch
    (:func:`repro.sim.engine.run_pmcast`): an eligible run — no fault
    plan, no link rules, a group the compat kernel can flatten — takes
    the compat kernel's event driver (:mod:`repro.sim.vector`), any
    other the scalar ``PmcastVariant`` on
    :func:`repro.variants.base.run_variant`, bit-identically.

    Args:
        schedule: when each process's timer fires; default is the
            zero-jitter :class:`~repro.net.scheduler.RoundSchedule` at
            the group's configured period — the engine-equivalent mode.
        latency_us: virtual wire latency, strictly below the schedule
            period (the paper's latency bound); default half a period.
        event_records: also emit round-less ``timer_fire`` records
            (ordered by ``time_us``) into ``trace``.  Off by default
            because extra records would break byte-identity with the
            engine's golden traces.
        observer: optional :class:`~repro.obs.probes.Observer`, as in
            ``run_dissemination``: its registry receives the kernel's
            ``vector.*`` counters or the ``sim.vector_fallback*``
            counters, and its sampler is the default ``sampler``.  The
            event loop records no timeline spans.

    ``sim_config``, ``crash_schedule``, ``network``, ``trace``,
    ``faults`` and ``sampler`` are as in ``run_dissemination``.

    Returns:
        the run's :class:`~repro.sim.metrics.DisseminationReport`.

    Raises:
        SimulationError: the publisher has crashed.
        NetError: ``latency_us`` outside ``(0, period)`` (checked after
            the publisher).
    """
    if schedule is None:
        schedule = RoundSchedule(period_us=group.config.period_ms * 1000)
    return run_pmcast(
        group, publisher, event, sim_config, crash_schedule, network,
        trace, faults, sampler, observer, schedule=schedule,
        latency_us=latency_us, event_records=event_records,
    )
