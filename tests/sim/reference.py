"""The scalar reference run, reached through the public strategy seam.

:func:`repro.sim.engine.run_dissemination` and
:func:`repro.net.run_sim_dissemination` pick their kernel from their
inputs: eligible runs take the compat kernel, faulted and link-rule
runs the scalar driver.  Tests that compare the two need the scalar
side on demand, so :func:`scalar_dissemination` makes exactly the
calls the dispatch makes when it falls back — ``setup_run`` →
``GossipContext`` → ``PmcastVariant`` → ``run_variant`` — and
:func:`scalar_sim_dissemination` does the same with a schedule, on the
driver's event loop.
"""

from repro.config import SimConfig
from repro.core.context import GossipContext
from repro.net.scheduler import RoundSchedule
from repro.variants.base import run_variant, setup_run
from repro.variants.pmcast import PmcastVariant


def scalar_dissemination(
    group,
    publisher,
    event,
    sim_config=None,
    crash_schedule=None,
    network=None,
    trace=None,
    faults=None,
    sampler=None,
    schedule=None,
    latency_us=None,
    event_records=False,
):
    """``run_dissemination`` forced onto the scalar ``PmcastVariant``;
    with a ``schedule``, on the driver's event loop."""
    sim_config = sim_config or SimConfig()
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
    return run_variant(
        variant,
        sim_config,
        network,
        crash_schedule,
        trace=trace,
        sampler=sampler,
        injector=injector,
        schedule=schedule,
        latency_us=latency_us,
        event_records=event_records,
    )


def scalar_sim_dissemination(
    group,
    publisher,
    event,
    sim_config=None,
    schedule=None,
    crash_schedule=None,
    network=None,
    trace=None,
    faults=None,
    sampler=None,
    latency_us=None,
    event_records=False,
):
    """``run_sim_dissemination`` forced onto the scalar event loop."""
    if schedule is None:
        schedule = RoundSchedule(period_us=group.config.period_ms * 1000)
    return scalar_dissemination(
        group,
        publisher,
        event,
        sim_config,
        crash_schedule=crash_schedule,
        network=network,
        trace=trace,
        faults=faults,
        sampler=sampler,
        schedule=schedule,
        latency_us=latency_us,
        event_records=event_records,
    )
