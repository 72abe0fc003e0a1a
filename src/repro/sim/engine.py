"""The round-synchronous simulation engine (§4.1, §5).

"The stochastic analysis [...] is based on the assumption that
processes gossip in synchronous rounds, and there is an upper bound on
the network latency which is smaller than a gossip period P."

One round therefore is: (1) crash the processes scheduled to crash,
(2) every live process fires its GOSSIP task (over the buffer state
left by the previous round's receptions), (3) the lossy network drops
each envelope independently with probability ε, (4) survivors are
received.  The run ends when every node is idle (passive garbage
collection emptied all buffers) or at the ``max_rounds`` safety cap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.addressing import Address
from repro.config import SimConfig
from repro.core.context import GossipContext
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.interests.events import Event
from repro.obs.probes import Observer
from repro.obs.registry import NULL_REGISTRY
from repro.obs.sampling import TraceSampler
from repro.obs.timeline import TimelineRecorder
from repro.obs.trace import TraceLog
from repro.sim.crashes import CrashSchedule
from repro.sim.group import PmcastGroup
from repro.sim.metrics import DisseminationReport
from repro.sim.network import LossyNetwork
from repro.sim.vector import try_run_vectorized
from repro.variants.base import resolve_latency, run_variant, setup_run
from repro.variants.pmcast import PmcastVariant

if TYPE_CHECKING:
    from repro.net.scheduler import Schedule

__all__ = ["run_dissemination", "run_pmcast"]


def run_dissemination(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    sim_config: Optional[SimConfig] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    network: Optional[LossyNetwork] = None,
    trace: Optional[TraceLog] = None,
    faults: Optional[FaultPlan] = None,
    sampler: Optional[TraceSampler] = None,
    observer: Optional[Observer] = None,
    timeline: Optional[TimelineRecorder] = None,
) -> DisseminationReport:
    """Multicast one event through the group and measure the outcome.

    Args:
        group: the wired group (see :class:`~repro.sim.group.PmcastGroup`).
        publisher: the PMCAST-ing process.
        event: the event to multicast.
        sim_config: environment (loss ε, crash τ, seed, round cap).
        crash_schedule: explicit crash plan; when omitted, one is
            sampled from ``sim_config.crash_fraction`` over a horizon of
            ``max_rounds`` (the analysis model's τ).
        network: an externally configured network (e.g. with partition
            rules); by default a fresh :class:`LossyNetwork` with
            ``sim_config.loss_probability``.
        trace: optional :class:`~repro.obs.trace.TraceLog` receiving one
            record per publish/send/loss/receive/delivery/crash, plus
            run metadata (publisher, interest ground truth, final round
            count) in :attr:`~repro.obs.trace.TraceLog.meta` — enough
            for ``python -m repro.obs summarize`` to reproduce this
            function's report offline.
        faults: optional :class:`~repro.faults.plan.FaultPlan` replayed
            by a :class:`~repro.faults.injector.FaultInjector` over its
            own RNG stream (label ``"faults"``), so a faulted run with
            the same seed leaves the gossip/network/crash draws — and
            therefore every unfaulted result — untouched.  Injected
            faults appear in ``trace`` as ``fault_*`` records.
        sampler: optional :class:`~repro.obs.sampling.TraceSampler`;
            when set, ``trace`` receives only the records whose
            ``(kind, process, event_id)`` key survives the hash
            decision, and the sampling block is stamped into the trace
            metadata so ``summarize`` rescales.  Sampling draws no
            randomness, so the report is unchanged.  ``fault_*``
            records are never sampled — they are scripted, sparse, and
            the trace's explanation of any damage.
        observer: optional :class:`~repro.obs.probes.Observer`.  Its
            registry receives the compat kernel's ``vector.*`` counters,
            or the ``sim.vector_fallback*`` counters when the run has to
            take the scalar loop instead; its ``sampler``/``timeline``
            act as defaults for the corresponding arguments.
        timeline: optional :class:`~repro.obs.timeline.TimelineRecorder`
            receiving per-round ``fan_out``/``exchange`` wall-clock
            spans (out of band; never affects the run).

    Returns:
        the :class:`~repro.sim.metrics.DisseminationReport` of the run.
    """
    if observer is not None and timeline is None:
        timeline = observer.timeline
    return run_pmcast(
        group, publisher, event, sim_config, crash_schedule, network,
        trace, faults, sampler, observer, timeline=timeline,
    )


def run_pmcast(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    sim_config: Optional[SimConfig],
    crash_schedule: Optional[CrashSchedule],
    network: Optional[LossyNetwork],
    trace: Optional[TraceLog],
    faults: Optional[FaultPlan],
    sampler: Optional[TraceSampler],
    observer: Optional[Observer],
    timeline: Optional[TimelineRecorder] = None,
    schedule: Optional[Schedule] = None,
    latency_us: Optional[int] = None,
    event_records: bool = False,
) -> DisseminationReport:
    """One pmcast run on the kernel its inputs allow.

    The shared body of :func:`run_dissemination` (round loop,
    ``schedule=None``) and :func:`repro.net.run_sim_dissemination`
    (event loop over ``schedule``).  Builds the run's collaborators
    (:func:`~repro.variants.base.setup_run`), rejects a crashed
    publisher (``SimulationError``) and then a latency outside the
    period (``NetError``), and only then picks the kernel: an eligible
    run takes the compat kernel (:mod:`repro.sim.vector`), anything
    else the scalar ``PmcastVariant`` on
    :func:`~repro.variants.base.run_variant`, counted in
    ``sim.vector_fallback`` and ``sim.vector_fallback_<reason>``.
    ``observer`` supplies the registry and, when ``sampler`` is
    omitted, the sampler.
    """
    sim_config = sim_config or SimConfig()
    if observer is not None and sampler is None:
        sampler = observer.sampler
    registry = observer.registry if observer is not None else NULL_REGISTRY
    gossip_rng, network, crash_schedule, injector = setup_run(
        sim_config,
        event.event_id,
        "",
        sim_config.max_rounds,
        group.addresses,
        lambda: group.tree,
        trace=trace,
        network=network,
        crash_schedule=crash_schedule,
        faults=faults,
    )
    ctx = GossipContext(gossip_rng, threshold_h=group.config.threshold_h)
    variant = PmcastVariant(group, publisher, event, ctx, sim_config)
    if not variant.origin.alive:
        raise SimulationError(f"publisher {publisher} has crashed")
    if schedule is not None:
        latency_us = resolve_latency(schedule, latency_us)

    # Every eligible run takes the compat kernel: it consumes the same
    # RNG streams in the same order and emits the same trace records,
    # so it is bit-identical to the scalar driver.  Fault plans and
    # link rules own the transmit step, and the kernel declines groups
    # it cannot flatten (returning None with every stream untouched);
    # those runs take the pmcast strategy on the shared driver
    # (repro.variants.base), which is the conformance reference.
    if injector is not None:
        reason = "faults"
    elif network.has_link_rules:
        reason = "link_rules"
    else:
        report = try_run_vectorized(
            variant,
            sim_config,
            network,
            crash_schedule,
            trace=trace,
            sampler=sampler,
            registry=registry,
            timeline=timeline,
            schedule=schedule,
            latency_us=latency_us,
            event_records=event_records,
        )
        if report is not None:
            return report
        reason = "ineligible"
    registry.counter("sim", "vector_fallback").inc()
    registry.counter("sim", f"vector_fallback_{reason}").inc()
    return run_variant(
        variant,
        sim_config,
        network,
        crash_schedule,
        trace=trace,
        sampler=sampler,
        injector=injector,
        timeline=timeline,
        schedule=schedule,
        latency_us=latency_us,
        event_records=event_records,
    )
