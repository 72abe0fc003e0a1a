"""The scalar reference run, reached through the public strategy seam.

:func:`repro.sim.engine.run_dissemination` picks its kernel from its
inputs: eligible runs take the compat kernel, faulted and link-rule
runs the scalar round loop.  Tests that compare the two need the
scalar side on demand, so :func:`scalar_dissemination` makes exactly
the calls the engine makes when it falls back — ``setup_run`` →
``GossipContext`` → ``PmcastVariant`` → ``run_variant``.
"""

from repro.config import SimConfig
from repro.core.context import GossipContext
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
):
    """``run_dissemination`` forced onto the scalar ``PmcastVariant``."""
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
    )
