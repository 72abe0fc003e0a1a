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

import warnings
from typing import Optional

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
from repro.variants.base import run_variant, setup_run
from repro.variants.pmcast import PmcastVariant

__all__ = ["run_dissemination"]


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
            registry receives the ``sim.vector_fallback*`` counters
            when ``vectorized=True`` has to fall back to this scalar
            loop; its ``sampler``/``timeline`` act as defaults for the
            corresponding arguments.
        timeline: optional :class:`~repro.obs.timeline.TimelineRecorder`
            receiving per-round ``fan_out``/``exchange`` wall-clock
            spans (out of band; never affects the run).

    Returns:
        the :class:`~repro.sim.metrics.DisseminationReport` of the run.
    """
    sim_config = sim_config or SimConfig()
    if observer is not None:
        if sampler is None:
            sampler = observer.sampler
        if timeline is None:
            timeline = observer.timeline
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
    origin = group.node(publisher)
    if not origin.alive:
        raise SimulationError(f"publisher {publisher} has crashed")

    if sim_config.vectorized:
        reason = None
        if injector is not None:
            reason = "faults"
        elif network.has_link_rules:
            reason = "link_rules"
        if reason is None:
            # The struct-of-arrays fast path consumes the same RNG
            # streams in the same order — and emits the same trace
            # records — so an eligible run is bit-identical to the
            # scalar loop below; an ineligible one returns None with
            # the streams untouched and falls through to it.
            report = try_run_vectorized(
                group,
                publisher,
                event,
                sim_config,
                ctx,
                network,
                crash_schedule,
                trace=trace,
                sampler=sampler,
                registry=registry,
                timeline=timeline,
            )
            if report is not None:
                return report
            reason = "ineligible"
        registry.counter("sim", "vector_fallback").inc()
        registry.counter("sim", f"vector_fallback_{reason}").inc()
        warnings.warn(
            f"SimConfig(vectorized=True) ignored ({reason}): "
            "falling back to the scalar engine",
            RuntimeWarning,
            stacklevel=2,
        )

    # The scalar path is the pmcast dissemination strategy running on
    # the shared round driver (the strategy seam extracted from this
    # very loop — see repro.variants.base).  PmcastVariant is an exact
    # port: same insertion-ordered active set, same RNG draw order,
    # same trace records, bit-identical reports.
    variant = PmcastVariant(group, publisher, event, ctx, sim_config)
    return run_variant(
        variant,
        sim_config,
        network,
        crash_schedule,
        trace=trace,
        sampler=sampler,
        injector=injector,
        timeline=timeline,
    )
