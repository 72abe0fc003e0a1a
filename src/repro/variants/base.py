"""The dissemination-variant strategy seam and its one driver.

Every single-event dissemination in this package family — the scalar
engine (:func:`repro.sim.engine.run_dissemination`), the event-driven
simulator (:func:`repro.net.runtime.run_sim_dissemination`), the flat
baselines (:mod:`repro.baselines.flat`) and the dissemination variants
(:mod:`repro.variants.lazy_pull`, :mod:`repro.variants.bounded_view`)
— is one round skeleton:

1. crash the processes scheduled for this round,
2. **fan out**: every live process with something to say emits its
   envelopes for the round,
3. **exchange**: the lossy network (or the fault injector wrapping it)
   drops each envelope independently, survivors are received.

What differs between algorithms is *only* who sends to whom and what a
reception does — the :class:`DisseminationVariant` interface, whose
hooks do not know who drives them.  :func:`setup_run` builds the
RNG-bearing collaborators (gossip stream, network, crash plan, fault
injector) from the caller's stream labels, and :func:`run_variant`
owns everything else: the trace preamble, the crash step, the
network/injector hand-off, distance accounting, the
``repro.obs.trace/v1`` disposition records, timeline spans, the
infection curve and the report finale.  It drives the hooks either in
a tight round loop or, given a :class:`~repro.net.scheduler.Schedule`,
on a :class:`~repro.net.clock.VirtualClock` where every process fires
its own timer.

The engine's historical behavior is a *contract*, not a casualty, of
this extraction: running the pmcast strategy
(:class:`repro.variants.pmcast.PmcastVariant`) through this driver is
bit-identical — same RNG draws, same trace records, same report — to
the pre-extraction loop, and the golden-seed suites pin that.

Determinism rules every strategy must follow (docs/VARIANTS.md):

* iterate insertion-ordered dicts or sorted lists, never sets — set
  order depends on ``PYTHONHASHSEED`` through ``Address.__hash__``;
* all randomness comes from RNG streams derived with
  :func:`repro.sim.rng.derive_rng` labels owned by the variant;
* randomness is consumed in a schedule-independent order (fan-out in
  active order, receptions in envelope order).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.addressing import Address, distance
from repro.config import SimConfig
from repro.errors import NetError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.sampling import SampledTrace, TraceSampler
from repro.obs.timeline import NULL_SPAN, TimelineRecorder
from repro.obs.trace import TraceLog
from repro.sim.crashes import CrashSchedule
from repro.sim.metrics import DisseminationReport
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_rng

if TYPE_CHECKING:
    from repro.net.scheduler import Schedule

__all__ = [
    "CONTROL_KINDS",
    "DisseminationVariant",
    "VariantEnvelope",
    "VariantMessage",
    "emit_dispositions",
    "open_trace",
    "resolve_latency",
    "run_variant",
    "setup_run",
]

Emit = Callable[..., None]

#: The control-plane trace kinds variants may emit (one disposition
#: record per control envelope; ``value`` is 1 when it arrived, 0 when
#: the network dropped it).  Payload envelopes use the engine's
#: ``send``/``loss`` + ``receive``/``deliver`` vocabulary instead.
CONTROL_KINDS = ("pull_request", "pull_reply", "view_shuffle")

#: The payload marker of :class:`VariantMessage.kind`.
PAYLOAD = "payload"


def emit_dispositions(
    envelopes: Sequence[Any],
    arrived: Any,
    diverted: Any,
    emit: Emit,
    rounds: int,
) -> None:
    """One transport-disposition record per envelope, engine style.

    ``send`` when the network delivered the envelope, ``loss`` when it
    dropped it, nothing when the fault injector diverted it (the
    injector emitted its own ``fault_*`` record).  ``arrived`` and
    ``diverted`` hold envelope ``id()`` values.  Shared by the driver
    (the default :meth:`DisseminationVariant.emit_dispositions`) and
    the live :class:`~repro.sim.runtime.GroupRuntime`.
    """
    for envelope in envelopes:
        if id(envelope) in diverted:
            continue
        emit(
            rounds,
            "send" if id(envelope) in arrived else "loss",
            envelope.message.sender,
            peer=envelope.destination,
            event_id=envelope.message.event.event_id,
            depth=envelope.message.depth,
        )


class VariantMessage:
    """A gossip message of a non-tree variant.

    Mirrors the duck type :meth:`LossyNetwork.transmit` relies on
    (``message.sender``) and the trace emission relies on
    (``message.event.event_id`` / ``message.depth``), so variant
    envelopes travel through the exact same network and fault plane as
    pmcast envelopes.

    Attributes:
        sender: the emitting process.
        kind: ``"payload"`` or one of :data:`CONTROL_KINDS`.
        event: the event being disseminated (control messages carry it
            too: a ``pull_reply`` *is* the event in flight).
        depth: tree depth for pmcast-style accounting; ``None`` for the
            flat variants (their traffic has no subtree scope).
        view: an optional membership sample piggybacked on the message
            (the bounded-view shuffle payload).
    """

    __slots__ = ("sender", "kind", "event", "depth", "view")

    def __init__(self, sender, kind, event, depth=None, view=None):
        self.sender = sender
        self.kind = kind
        self.event = event
        self.depth = depth
        self.view = view


class VariantEnvelope:
    """One addressed :class:`VariantMessage` (network transfer unit)."""

    __slots__ = ("destination", "message")

    def __init__(self, destination, message):
        self.destination = destination
        self.message = message


class DisseminationVariant(ABC):
    """One dissemination strategy, pluggable into :func:`run_variant`.

    A variant owns the *who-talks-to-whom* state of a single run (it is
    single-use): the infected set, per-process send budgets, partial
    views, pending pulls.  The driver owns the round structure and
    everything observable around it.  Subclasses fill in the abstract
    hooks; the three class attributes label the run's observability:

    * ``name`` — short identifier (bench tables, docs);
    * ``producer`` — the trace's ``meta["producer"]``;
    * ``subsystem`` — the timeline span subsystem.
    """

    name: str = "variant"
    producer: str = "repro.variants"
    subsystem: str = "variants"

    @property
    @abstractmethod
    def depth(self) -> int:
        """Length of the report's ``messages_by_distance`` histogram."""

    @abstractmethod
    def trace_meta(self) -> Dict[str, Any]:
        """The run metadata annotated onto the trace before round 0.

        Must carry whatever ``python -m repro.obs summarize`` needs to
        reproduce the report's ratios (publisher, interested ground
        truth, seed) — see the engine's annotation for the contract.
        """

    @abstractmethod
    def begin(self, emit: Optional[Emit]) -> None:
        """Seed the publisher (round 0) and emit its publish/deliver."""

    @abstractmethod
    def crash(self, victim: Address) -> bool:
        """Apply one crash; True when the victim was alive (emit it)."""

    @abstractmethod
    def is_active(self) -> bool:
        """True while some process still has protocol work pending."""

    @abstractmethod
    def fan_out(self, rounds: int) -> List[Any]:
        """The round's envelopes, in deterministic sender order."""

    def fan_out_one(self, address: Address, rounds: int) -> List[Any]:
        """One process's envelopes for its timer fire (event loop).

        The per-process half of :meth:`fan_out`: :func:`run_variant`
        given a schedule drives each process from its own timer instead
        of walking the active set.  A variant that supports event-driven
        execution must make firing every active process once, in
        active-set order, consume RNG exactly like one :meth:`fan_out`
        call — that is what keeps the zero-jitter event run
        bit-identical — and expose ``publisher`` (the first timer armed)
        and ``event``.  Variants without per-process state simply do
        not override this.
        """
        raise NotImplementedError(
            f"variant {self.name!r} does not support per-process fan-out"
        )

    def is_process_active(self, address: Address) -> bool:
        """Whether ``address`` still has protocol work pending.

        The event loop uses this for lazy timer cancellation: a popped
        timer whose process went idle or crashed is skipped without
        consuming any randomness.
        """
        raise NotImplementedError(
            f"variant {self.name!r} does not support per-process fan-out"
        )

    @abstractmethod
    def receive(
        self, envelope: Any, emit: Optional[Emit], rounds: int
    ) -> None:
        """Apply one delivered envelope (and emit receive/deliver)."""

    @abstractmethod
    def infected_count(self) -> int:
        """Processes holding the event (the infection-curve sample)."""

    @abstractmethod
    def finalize(
        self,
        rounds: int,
        infection_curve: Tuple[int, ...],
        messages_by_distance: Tuple[int, ...],
        network: LossyNetwork,
        crash_schedule: CrashSchedule,
        injector: Optional[Any],
    ) -> DisseminationReport:
        """Assemble the run's :class:`DisseminationReport`."""

    #: One transport-disposition record per envelope per round — the
    #: engine's convention, :func:`emit_dispositions`.  Variants with
    #: control traffic override this to emit the :data:`CONTROL_KINDS`.
    emit_dispositions = staticmethod(emit_dispositions)


def setup_run(
    sim_config: SimConfig,
    event_id: int,
    prefix: str,
    horizon: int,
    population: Callable[[], Iterable[Address]],
    fault_tree: Callable[[], Any],
    trace: Optional[TraceLog] = None,
    network: Optional[LossyNetwork] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    faults: Optional[FaultPlan] = None,
) -> Tuple[
    random.Random, LossyNetwork, CrashSchedule, Optional[FaultInjector]
]:
    """Build one run's RNG-bearing collaborators.

    Every stream is ``derive_rng(seed, prefix + label, event_id)`` with
    ``label`` one of ``gossip``/``network``/``crash``/``faults`` —
    ``prefix`` is ``""`` for pmcast and ``"flat-"`` for the flat-style
    variants — so a faulted run with the same seed leaves the gossip,
    network and crash draws, and therefore every unfaulted result,
    untouched.

    Args:
        sim_config: supplies the seed, loss ε and crash τ.
        event_id: the disseminated event (every stream is per event).
        prefix: the stream-label prefix of the caller's scheme.
        horizon: the crash-sampling horizon in rounds.
        population: the members crash sampling walks, in order; only
            called when ``crash_schedule`` is omitted.
        fault_tree: the membership tree fault clauses resolve
            against; only called when ``faults`` is given.
        trace: receives the injector's ``fault_*`` records (never
            sampled: they are scripted, sparse, and the trace's
            explanation of any damage).
        network: a caller-configured network (e.g. with partition
            rules) used instead of a fresh ε-loss one.
        crash_schedule: an explicit crash plan used instead of one
            sampled from τ.
        faults: an optional fault plan for the injector.

    Returns:
        ``(gossip_rng, network, crash_schedule, injector)``; the
        injector is ``None`` without a plan.
    """
    seed = sim_config.seed
    gossip_rng = derive_rng(seed, prefix + "gossip", event_id)
    if network is None:
        network = LossyNetwork(
            sim_config.loss_probability,
            derive_rng(seed, prefix + "network", event_id),
        )
    if crash_schedule is None:
        crash_schedule = CrashSchedule.sample(
            population(),
            sim_config.crash_fraction,
            horizon=horizon,
            rng=derive_rng(seed, prefix + "crash", event_id),
        )
    injector: Optional[FaultInjector] = None
    if faults is not None:
        injector = FaultInjector(
            faults,
            fault_tree(),
            derive_rng(seed, prefix + "faults", event_id),
            emit=trace.record if trace is not None else None,
            clock_offset=1,
        )
    return gossip_rng, network, crash_schedule, injector


def run_variant(
    variant: DisseminationVariant,
    sim_config: SimConfig,
    network: LossyNetwork,
    crash_schedule: CrashSchedule,
    trace: Optional[TraceLog] = None,
    sampler: Optional[TraceSampler] = None,
    injector: Optional[Any] = None,
    timeline: Optional[TimelineRecorder] = None,
    schedule: Optional[Schedule] = None,
    latency_us: Optional[int] = None,
    event_records: bool = False,
) -> DisseminationReport:
    """Drive one dissemination strategy to completion.

    Without a ``schedule`` the hooks run in the engine's tight round
    loop.  With one they run on a virtual clock: round boundaries,
    per-process timer fires and transport flushes are events ordered
    ``(time, priority, seq)``, and each timer fire calls
    :meth:`DisseminationVariant.fan_out_one` for its process alone.
    Both loops share the trace preamble, the crash step and the
    finale; a zero-jitter :class:`~repro.net.scheduler.RoundSchedule`
    makes the event loop bit-identical to the round loop
    (docs/NETWORK.md).

    Args:
        variant: the single-use strategy instance.
        sim_config: supplies ``max_rounds`` (the safety cap).
        network: the ε-loss network (see :func:`setup_run`).
        crash_schedule: the τ-model crash plan.
        trace: optional ``repro.obs.trace/v1`` log.
        sampler: optional trace sampler (fault records are never
            sampled; they are emitted by the injector directly).
        injector: optional :class:`repro.faults.injector.FaultInjector`
            already wired with its emit callback.
        timeline: optional wall-clock recorder receiving per-round
            ``fan_out``/``exchange`` spans under ``variant.subsystem``
            (round loop only) and a final memory probe.
        schedule: optional :class:`~repro.net.scheduler.Schedule`
            selecting the event loop.
        latency_us: the event loop's virtual wire latency, strictly
            below the schedule period (the paper's latency bound);
            default half a period.
        event_records: the event loop also emits round-less
            ``timer_fire`` records (ordered by ``time_us``) into
            ``trace``.  Off by default because extra records would
            break byte-identity with the engine's golden traces.

    Returns:
        the variant's :class:`~repro.sim.metrics.DisseminationReport`.

    Raises:
        NetError: ``latency_us`` outside ``(0, period)``.
    """
    if schedule is not None:
        latency_us = resolve_latency(schedule, latency_us)
    emit = open_trace(
        variant, trace, sampler, injector, schedule, latency_us,
        event_records,
    )
    variant.begin(emit)

    infection_curve: List[int] = []
    messages_by_distance = [0] * variant.depth
    if schedule is None:
        rounds = _round_loop(
            variant, sim_config, network, crash_schedule, injector, emit,
            timeline, infection_curve, messages_by_distance,
        )
    else:
        rounds = _event_loop(
            variant, sim_config, network, crash_schedule, injector, emit,
            schedule, latency_us, event_records, infection_curve,
            messages_by_distance,
        )

    if timeline is not None:
        timeline.probe_memory(subsystem=variant.subsystem, round_index=rounds)
    if trace is not None:
        trace.annotate(rounds=rounds)
        if injector is not None:
            trace.annotate(fault_stats=injector.stats())
    return variant.finalize(
        rounds,
        tuple(infection_curve),
        tuple(messages_by_distance),
        network,
        crash_schedule,
        injector,
    )


def resolve_latency(schedule: Schedule, latency_us: Optional[int]) -> int:
    """The event loop's wire latency: ``latency_us`` or half a period.

    Raises:
        NetError: the latency is outside ``(0, period)`` — the model
            requires network latency below the gossip period.
    """
    period_us = schedule.period_us
    if latency_us is None:
        latency_us = period_us // 2
    if not 0 < latency_us < period_us:
        raise NetError(
            f"latency_us {latency_us} must lie in (0, {period_us}): "
            "the model requires network latency below the gossip "
            "period"
        )
    return latency_us


def open_trace(
    variant: DisseminationVariant,
    trace: Optional[TraceLog],
    sampler: Optional[TraceSampler] = None,
    injector: Optional[Any] = None,
    schedule: Optional[Schedule] = None,
    latency_us: Optional[int] = None,
    event_records: bool = False,
) -> Optional[Emit]:
    """The trace preamble of one run; returns its record emitter.

    Annotates the sampler's block when sampling, the variant's
    :meth:`~DisseminationVariant.trace_meta`, the fault plan when an
    injector runs, and the ``net`` block when an event-loop run emits
    ``timer_fire`` records — in that key order.
    Shared by :func:`run_variant` and the compat kernel
    (:mod:`repro.sim.vector`), so both paths write the same metadata.
    Returns ``None`` without a trace.
    """
    if trace is None:
        return None
    # A sampled emitter stamps its ``sampling`` block first.
    emit = (
        trace.record
        if sampler is None
        else SampledTrace(trace, sampler).record
    )
    trace.annotate(**variant.trace_meta())
    if injector is not None:
        trace.annotate(fault_plan=injector.plan.to_dict())
    if schedule is not None and event_records:
        trace.annotate(
            net={
                "schedule": repr(schedule),
                "period_us": schedule.period_us,
                "latency_us": latency_us,
            }
        )
    return emit


def _begin_round(
    variant: DisseminationVariant,
    crash_schedule: CrashSchedule,
    injector: Optional[Any],
    round_index: int,
    emit: Optional[Emit],
) -> bool:
    """The crash step at the top of round ``round_index``.

    Applies the scheduled crashes, then the injector's targeted
    crashes not already scheduled, emitting one ``crash`` record per
    victim that was alive.  Returns whether work is still pending: an
    active process, or envelopes the injector is holding back.
    """
    victims = crash_schedule.crashes_at(round_index)
    if injector is not None:
        injector.begin_round(round_index)
        scheduled = set(victims)
        victims = victims + [
            victim
            for victim in injector.crashes_at(round_index)
            if victim not in scheduled
        ]
    for victim in victims:
        if variant.crash(victim) and emit is not None:
            emit(round_index + 1, "crash", victim)
    return variant.is_active() or (
        injector is not None and injector.has_pending
    )


def _emit_round_dispositions(
    variant: DisseminationVariant,
    envelopes: Sequence[Any],
    delivered: Sequence[Any],
    injector: Optional[Any],
    emit: Emit,
    rounds: int,
) -> None:
    """Hand one transmitted batch's fate to the variant's emitter."""
    variant.emit_dispositions(
        envelopes,
        frozenset(id(envelope) for envelope in delivered),
        injector.last_diverted if injector is not None else frozenset(),
        emit,
        rounds,
    )


def _round_loop(
    variant: DisseminationVariant,
    sim_config: SimConfig,
    network: LossyNetwork,
    crash_schedule: CrashSchedule,
    injector: Optional[Any],
    emit: Optional[Emit],
    timeline: Optional[TimelineRecorder],
    infection_curve: List[int],
    messages_by_distance: List[int],
) -> int:
    """The engine's round-synchronous loop; returns the rounds run."""
    rounds = 0
    for round_index in range(sim_config.max_rounds):
        if not _begin_round(
            variant, crash_schedule, injector, round_index, emit
        ):
            break
        rounds = round_index + 1

        with (
            timeline.span("fan_out", variant.subsystem, rounds)
            if timeline is not None
            else NULL_SPAN
        ):
            envelopes = variant.fan_out(rounds)
            for envelope in envelopes:
                hops = distance(envelope.message.sender, envelope.destination)
                messages_by_distance[max(hops, 1) - 1] += 1

        with (
            timeline.span("exchange", variant.subsystem, rounds)
            if timeline is not None
            else NULL_SPAN
        ):
            if injector is None:
                delivered = network.transmit(envelopes)
            else:
                delivered = injector.transmit(round_index, envelopes, network)
            if emit is not None:
                _emit_round_dispositions(
                    variant, envelopes, delivered, injector, emit, rounds
                )
            for envelope in delivered:
                variant.receive(envelope, emit, rounds)

        infection_curve.append(variant.infected_count())
    return rounds


def _event_loop(
    variant: DisseminationVariant,
    sim_config: SimConfig,
    network: LossyNetwork,
    crash_schedule: CrashSchedule,
    injector: Optional[Any],
    emit: Optional[Emit],
    schedule: Schedule,
    latency_us: int,
    event_records: bool,
    infection_curve: List[int],
    messages_by_distance: List[int],
) -> int:
    """The discrete-event loop over a virtual clock; returns rounds run.

    Round boundaries pace the crash plan, the infection curve and
    termination even when no timer lands in a round; every process
    fires its own timer, and everything sent at one instant flushes as
    one ordered batch through the network (and injector), so loss
    draws happen in the round loop's order.
    """
    # repro.net imports this package while loading, so its clock and
    # transport are imported on first use rather than at module load.
    from repro.net.clock import PRIORITY_BOUNDARY, PRIORITY_TIMER, VirtualClock
    from repro.net.transport import SimTransport

    period_us = schedule.period_us
    emit_events = event_records and emit is not None
    event_id = variant.event.event_id
    clock = VirtualClock()
    transport = SimTransport(clock, network, latency_us, injector=injector)
    #: Processes with an armed timer on the clock (lazy cancellation:
    #: a popped timer for an inactive process is skipped).
    scheduled: Set[Address] = set()
    keys: Dict[Address, str] = {}

    def arm_timer(address: Address) -> None:
        key = keys.get(address)
        if key is None:
            key = keys[address] = str(address)
        __, fire_us = schedule.next_fire(key, clock.now_us)
        clock.schedule(fire_us, PRIORITY_TIMER, ("timer", address))
        scheduled.add(address)

    # Boundary r (at time (r+1)·P, before that instant's timers)
    # corresponds to the top of round-loop iteration round_index = r.
    clock.schedule(period_us, PRIORITY_BOUNDARY, ("boundary", 0))
    arm_timer(variant.publisher)

    rounds = 0
    while clock:
        when_us, __, __, payload = clock.pop()
        kind = payload[0]

        if kind == "boundary":
            round_index = payload[1]
            if round_index > 0:
                # The sample for the round that just completed — the
                # round loop appends it after that round's exchange.
                infection_curve.append(variant.infected_count())
            if round_index >= sim_config.max_rounds:
                break
            if (
                not _begin_round(
                    variant, crash_schedule, injector, round_index, emit
                )
                and not transport.in_flight
            ):
                break
            rounds = round_index + 1
            if injector is not None:
                # The round loop invokes the injector's transmit every
                # round even with an empty fan-out (releasing delayed
                # envelopes); an empty flush batch reproduces that.
                transport.ensure_flush(when_us + latency_us)
            clock.schedule(
                when_us + period_us, PRIORITY_BOUNDARY,
                ("boundary", round_index + 1),
            )

        elif kind == "timer":
            address = payload[1]
            scheduled.discard(address)
            if not variant.is_process_active(address):
                continue  # crashed or idled since arming: no RNG touched
            if emit_events:
                emit(
                    None, "timer_fire", address,
                    event_id=event_id, time_us=when_us,
                )
            for envelope in variant.fan_out_one(address, rounds):
                hops = distance(
                    envelope.message.sender, envelope.destination
                )
                messages_by_distance[max(hops, 1) - 1] += 1
                transport.send(envelope)
            if variant.is_process_active(address):
                arm_timer(address)

        else:  # flush
            batch = transport.take(payload[1])
            delivered = transport.transmit(batch, rounds - 1)
            if emit is not None:
                _emit_round_dispositions(
                    variant, batch, delivered, injector, emit, rounds
                )
            for envelope in delivered:
                variant.receive(envelope, emit, rounds)
                receiver = envelope.destination
                if (
                    variant.is_process_active(receiver)
                    and receiver not in scheduled
                ):
                    arm_timer(receiver)
    return rounds
