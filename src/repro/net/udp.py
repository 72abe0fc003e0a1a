"""Deployment-style dissemination over real UDP datagrams on localhost.

One asyncio event loop hosts every member: each gets a bound UDP
endpoint (:class:`~repro.net.transport.FairLossUdpTransport`), an
:class:`~repro.net.process.AsyncProcess` mailbox, and — only while it
has protocol work — a driver task firing its gossip timer every
``period_s`` (desynchronized by a seeded start offset, so timers do
not herd).  Datagram receipt enqueues into the mailbox and spawns the
driver back if it had parked; the run quiesces when no send or receive
happened for ``quiet_periods`` periods and every driver parked, or at
the ``hard_timeout_s`` wall-clock cap.

The protocol logic is the engine's own :class:`PmcastNode`, untouched,
and the outcome is scored by the same arithmetic
(:func:`~repro.variants.pmcast.assemble_pmcast_report`) — so a UDP
run's :class:`~repro.sim.metrics.DisseminationReport` is directly
comparable against the Eqs 12–18 oracle bands, which is exactly what
the integration test does.  Outcomes are *not* deterministic (kernel
scheduling reorders datagrams); determinism lives in the virtual-clock
runtime (:mod:`repro.net.runtime`).  An optional trace receives
round-less ``publish``/``timer_fire``/``send``/``recv``/``receive``/
``deliver`` records ordered by ``time_us``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.addressing import Address, distance
from repro.core.context import GossipContext
from repro.interests.events import Event
from repro.membership.failure_detector import FailureDetector
from repro.net.process import AsyncProcess
from repro.net.transport import FairLossUdpTransport, UdpEndpointRegistry
from repro.obs.trace import TraceLog
from repro.sim.group import PmcastGroup
from repro.sim.metrics import DisseminationReport
from repro.sim.rng import derive_rng
from repro.variants.pmcast import assemble_pmcast_report

__all__ = ["UdpRunStats", "run_udp_dissemination"]

#: Failure-detector timeout, in periods of silence before suspicion.
_DETECTOR_TIMEOUT_PERIODS = 3


@dataclass(frozen=True)
class UdpRunStats:
    """Throughput-facing counters of one UDP run.

    ``events`` counts protocol events processed — timer fires, protocol
    sends, and drained receptions — the ``net_throughput`` bench's
    sustained-rate numerator.  ``completed`` is True when the run
    quiesced on its own (no activity for the configured quiet window)
    rather than hitting the hard timeout.
    """

    members: int
    elapsed_seconds: float
    timer_fires: int
    messages_sent: int
    messages_lost: int
    datagrams_received: int
    receptions: int
    completed: bool

    @property
    def events(self) -> int:
        return self.timer_fires + self.messages_sent + self.receptions

    @property
    def events_per_sec(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.events / self.elapsed_seconds


def run_udp_dissemination(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    seed: int = 0,
    loss_probability: float = 0.0,
    period_s: float = 0.05,
    quiet_periods: int = 5,
    hard_timeout_s: float = 30.0,
    trace: Optional[TraceLog] = None,
    host: str = "127.0.0.1",
) -> Tuple[DisseminationReport, UdpRunStats]:
    """Multicast one event through live UDP processes; score the outcome.

    Args:
        group: the wired group; node state is borrowed like the engine
            borrows it.
        seed: derives every per-process RNG stream (gossip draws,
            software-loss draws, timer start offsets).
        loss_probability: software ε applied at send per transport —
            seeded, so the *loss model* is reproducible even though
            datagram timing is not.
        period_s: the gossip period P, real seconds.
        quiet_periods: quiescence window — the run ends after this many
            periods with no send, receive, or pending mailbox.
        hard_timeout_s: wall-clock cap; hitting it reports
            ``completed=False`` instead of hanging a test or bench.
        trace: optional round-less event trace (``time_us`` ordered).

    Returns:
        ``(report, stats)``.
    """
    return asyncio.run(
        _run_udp(
            group, publisher, event, seed, loss_probability, period_s,
            quiet_periods, hard_timeout_s, trace, host,
        )
    )


async def _run_udp(
    group: PmcastGroup,
    publisher: Address,
    event: Event,
    seed: int,
    loss_probability: float,
    period_s: float,
    quiet_periods: int,
    hard_timeout_s: float,
    trace: Optional[TraceLog],
    host: str,
) -> Tuple[DisseminationReport, UdpRunStats]:
    loop = asyncio.get_running_loop()
    registry = UdpEndpointRegistry()
    addresses = group.addresses()
    interested = set(group.interested_members(event))
    sent_before = sum(node.messages_sent for node in group.nodes())
    receptions_before = sum(node.receptions for node in group.nodes())
    depth = group.tree.depth

    started_at = loop.time()

    def now_us() -> int:
        return int((loop.time() - started_at) * 1_000_000)

    emit = trace.record if trace is not None else None
    if trace is not None:
        trace.annotate(
            producer="repro.net.udp",
            publisher=str(publisher),
            event_id=event.event_id,
            group_size=group.size,
            interested=sorted(str(address) for address in interested),
            interested_count=len(interested),
            uninterested_count=group.size
            - len(interested)
            - (0 if publisher in interested else 1),
            publisher_interested=publisher in interested,
            seed=seed,
            net={
                "transport": "udp",
                "period_us": int(period_s * 1_000_000),
                "loss_probability": loss_probability,
            },
        )

    counters = {
        "timer_fires": 0,
        "messages_sent": 0,
        "receptions": 0,
    }
    messages_by_distance = [0] * depth
    last_activity = [loop.time()]
    processes: Dict[Address, AsyncProcess] = {}
    transports: List[FairLossUdpTransport] = []
    driving: Dict[Address, asyncio.Task] = {}
    stopping = asyncio.Event()

    def elapsed_periods() -> int:
        return int((loop.time() - started_at) / period_s)

    def spawn(process: AsyncProcess) -> None:
        if stopping.is_set() or process.address in driving:
            return
        driving[process.address] = loop.create_task(_drive(process))

    def make_on_receive(address: Address):
        def on_receive(envelope) -> None:
            process = processes[address]
            process.deliver(envelope)
            last_activity[0] = loop.time()
            if emit is not None:
                emit(
                    None, "recv", address,
                    peer=envelope.message.sender,
                    event_id=envelope.message.event.event_id,
                    depth=envelope.message.depth,
                    time_us=now_us(),
                )
            spawn(process)

        return on_receive

    for address in addresses:
        transport = await FairLossUdpTransport.create(
            address,
            registry,
            make_on_receive(address),
            loss_probability=loss_probability,
            rng=derive_rng(seed, "net-loss", str(address)),
            host=host,
        )
        transports.append(transport)
        ctx = GossipContext(
            derive_rng(seed, "net-gossip", str(address)),
            threshold_h=group.config.threshold_h,
        )
        processes[address] = AsyncProcess(
            group.node(address),
            ctx,
            transport,
            detector=FailureDetector(
                address, timeout=_DETECTOR_TIMEOUT_PERIODS
            ),
        )

    async def _drive(process: AsyncProcess) -> None:
        address = process.address
        offset_rng = derive_rng(seed, "net-sched", str(address))
        try:
            # Desynchronized start: real deployments' timers are not
            # phase-aligned, and neither is the localhost herd.
            await asyncio.sleep(offset_rng.random() * period_s)
            while not stopping.is_set():
                node = process.node
                delivered_before = node.has_delivered(event)
                drained = process.drain(elapsed_periods())
                sent = []
                if node.alive:
                    process.timer_fires += 1
                    counters["timer_fires"] += 1
                    sent = node.gossip_step(process.ctx)
                    for envelope in sent:
                        hops = distance(
                            envelope.message.sender, envelope.destination
                        )
                        messages_by_distance[max(hops, 1) - 1] += 1
                        process.transport.send(envelope)
                if emit is not None:
                    stamp = now_us()
                    emit(
                        None, "timer_fire", address,
                        event_id=event.event_id, time_us=stamp,
                    )
                    for envelope in drained:
                        emit(
                            None, "receive", address,
                            peer=envelope.message.sender,
                            event_id=envelope.message.event.event_id,
                            depth=envelope.message.depth,
                            time_us=stamp,
                        )
                    if not delivered_before and node.has_delivered(event):
                        emit(
                            None, "deliver", address,
                            event_id=event.event_id, time_us=stamp,
                        )
                    for envelope in sent:
                        emit(
                            None, "send", address,
                            peer=envelope.destination,
                            event_id=envelope.message.event.event_id,
                            depth=envelope.message.depth,
                            time_us=stamp,
                        )
                if drained:
                    counters["receptions"] += len(drained)
                if sent:
                    counters["messages_sent"] += len(sent)
                    last_activity[0] = loop.time()
                if not process.has_work:
                    return
                await asyncio.sleep(period_s)
        finally:
            driving.pop(address, None)

    # PMCAST: seed the publisher's buffers and start its timer.
    origin_process = processes[publisher]
    origin_process.node.pmcast(event, origin_process.ctx)
    if emit is not None:
        emit(None, "publish", publisher, event_id=event.event_id, time_us=0)
        if origin_process.node.has_delivered(event):
            emit(
                None, "deliver", publisher,
                event_id=event.event_id, time_us=0,
            )
    spawn(origin_process)

    infection_curve: List[int] = []
    completed = False
    try:
        while loop.time() - started_at < hard_timeout_s:
            await asyncio.sleep(period_s)
            infection_curve.append(
                sum(
                    1 for node in group.nodes() if node.has_received(event)
                )
            )
            quiet = loop.time() - last_activity[0]
            if not driving and quiet >= quiet_periods * period_s:
                completed = True
                break
    finally:
        stopping.set()
        for task in list(driving.values()):
            task.cancel()
        if driving:
            await asyncio.gather(
                *driving.values(), return_exceptions=True
            )
        for transport in transports:
            transport.close()

    elapsed = loop.time() - started_at
    infected_count = sum(
        1 for node in group.nodes() if node.has_received(event)
    )
    messages_lost = sum(
        transport.messages_lost for transport in transports
    )
    datagrams_received = sum(
        transport.messages_received for transport in transports
    )
    rounds = len(infection_curve)
    if trace is not None:
        trace.annotate(rounds=rounds)
    report = assemble_pmcast_report(
        group,
        publisher,
        event,
        interested,
        infected_count,
        rounds,
        tuple(infection_curve),
        tuple(messages_by_distance),
        messages_lost,
        crashed=0,
        sent_before=sent_before,
        receptions_before=receptions_before,
    )
    stats = UdpRunStats(
        members=group.size,
        elapsed_seconds=elapsed,
        timer_fires=counters["timer_fires"],
        messages_sent=counters["messages_sent"],
        messages_lost=messages_lost,
        datagrams_received=datagrams_received,
        receptions=counters["receptions"],
        completed=completed,
    )
    return report, stats
