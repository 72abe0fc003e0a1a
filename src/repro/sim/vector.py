"""Struct-of-arrays fast paths for the simulation hot loop.

Two kernels live here, with different contracts:

**Compat kernel** (:func:`try_run_vectorized`) — the pmcast driver
(:class:`~repro.variants.pmcast.PmcastVariant` on
:func:`~repro.variants.base.run_variant`) flattened onto dense integer
indices instead of the per-member object model.  One *fire* body (a
process's Figure 3 firing) and one *receive* body (one transmitted
batch) run under two drivers: the engine's round loop, and the
virtual-clock event loop of a :class:`~repro.net.scheduler.Schedule`
run.  It consumes the *same* ``random.Random`` streams in the *same*
order as the scalar driver (destination draws via a position-level
mirror of CPython's ``random.sample``, loss draws via
:meth:`~repro.sim.network.LossyNetwork.transmit_flags`) and emits the
same ``repro.obs.trace/v1`` records in the same order (through the same
optional :class:`~repro.obs.sampling.TraceSampler`); everything outside
the hot loop — the line-7 round bound, the §3.2 shortcut, the trace
preamble and the report — is the scalar code itself, so an eligible
run is bit-identical.  :func:`repro.sim.engine.run_pmcast`, behind both
``run_dissemination`` and ``repro.net.run_sim_dissemination``, picks
it for every run it can express; the rest (fault plans, link rules,
non-idle nodes, irregular address depths) take the scalar driver, and
each such fallback is counted.

**Regular-tree kernel** (:class:`RegularTreeSpec` /
:func:`run_shard_wave`) — a fully vectorized numpy round step for the
synthetic full regular tree (n = arity^depth, delegates = the R
smallest addresses of each subtree, exact-union regrouping).  Member
state is four flat arrays (``alive``, ``received``, ``buf_depth``,
``buf_round``); per-(depth, subgroup) matching masks, rates, round
bounds and flood flags are precomputed tables, valid because every
entry of a view shares the view's subgroup and therefore its rate.
Destination draws come from per-(shard, round) ``numpy`` PCG64 streams
derived through the SHA-256 seed contract — deterministic at any
worker count, but *not* stream-compatible with the scalar engine; this
kernel is validated statistically against the Eqs 8–18 oracles (the
``scale`` conformance suite) rather than by digest.  The sharding
coordinator that drives :func:`run_shard_wave` over a
:class:`~repro.par.TrialExecutor` lives in :mod:`repro.par.subtree`.

Determinism rules (both kernels): no wall clock, no ``hash()`` of
interned objects, no set-iteration order — every draw is derived from
the master seed via :func:`repro.sim.rng.derive_seed`, and every loop
iterates arrays or insertion-ordered lists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.config import PmcastConfig, SimConfig
from repro.core.context import GossipContext
from repro.core.rounds import view_round_bound
from repro.errors import ProtocolError, SimulationError
from repro.interests.events import Event
from repro.obs.registry import MetricsRegistry, registry_or_null
from repro.obs.sampling import TraceSampler, keep, keep_mask
from repro.obs.timeline import NULL_SPAN, TimelineRecorder
from repro.obs.trace import TraceLog
from repro.sim.crashes import CrashSchedule
from repro.sim.group import PmcastGroup
from repro.sim.metrics import DisseminationReport
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_seed
from repro.variants.base import Emit, open_trace
from repro.variants.pmcast import PmcastVariant, assemble_pmcast_report

if TYPE_CHECKING:
    from repro.net.scheduler import Schedule

__all__ = [
    "VectorUnsupported",
    "sample_positions",
    "try_run_vectorized",
    "RegularTreeSpec",
    "ShardState",
    "run_shard_wave",
]


class VectorUnsupported(SimulationError):
    """The requested run cannot be expressed on the vector fast path."""


# ---------------------------------------------------------------------------
# The random.sample mirror.
# ---------------------------------------------------------------------------

def sample_positions(randbelow, n: int, k: int) -> List[int]:
    """Draw ``k`` distinct positions from ``range(n)``, mirroring
    ``random.Random.sample``.

    This is CPython's ``Random.sample`` with the population replaced by
    positions: the same ``setsize`` heuristic, the same pool-shuffle /
    selection-set branches, the same number and order of
    ``_randbelow`` draws.  Because ``sample`` only consumes randomness
    as a function of ``(len(population), k)``, feeding the same
    underlying ``Random`` through this mirror yields positions ``j``
    such that ``population[j]`` reproduces ``sample(population, k)``
    element for element — the keystone of the compat kernel's
    bit-for-bit digest equality with the scalar engine.
    """
    result = [0] * k
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        for i in range(k):
            j = randbelow(n - i)
            result[i] = pool[j]
            pool[j] = pool[n - i - 1]
    else:
        selected = set()
        selected_add = selected.add
        for i in range(k):
            j = randbelow(n)
            while j in selected:
                j = randbelow(n)
            selected_add(j)
            result[i] = j
    return result


# ---------------------------------------------------------------------------
# Compat kernel: bit-identical to the scalar engine.
# ---------------------------------------------------------------------------

class _DepthMatch:
    """One (view table, event) match flattened to dense indices.

    The struct-of-arrays image of :class:`repro.core.rate.TableMatch`:
    ``entries`` holds member indices in view order, ``mask`` the
    effective (post-§5.3) interest verdict per entry, ``pos`` the
    inverse mapping for self-exclusion.  ``bounds`` memoizes the
    Figure 3 line 7 round bound per propagated rate — the same
    (entry count, rate, config) function the scalar context memoizes.
    """

    __slots__ = (
        "entries", "mask", "pos", "rate", "entry_count",
        "flood_targets", "bounds",
    )

    def __init__(self, entries, mask, pos, rate, flood_targets):
        self.entries = entries
        self.mask = mask
        self.pos = pos
        self.rate = rate
        self.entry_count = len(entries)
        self.flood_targets = flood_targets
        self.bounds: Dict[float, int] = {}

    def bound_for(self, rate: float, config: PmcastConfig) -> int:
        bound = self.bounds.get(rate)
        if bound is None:
            bound = view_round_bound(self.entry_count, rate, config)
            self.bounds[rate] = bound
        return bound


class _CompatSpec:
    """Everything the compat round loop needs, in index space."""

    __slots__ = (
        "addresses", "index_of", "components", "tree_depth",
        "node_matches", "own_match", "alive", "received", "delivered",
    )


def _build_compat_spec(
    group: PmcastGroup, event: Event, ctx: GossipContext
) -> Optional[_CompatSpec]:
    """Flatten the group for ``event``, or None if ineligible.

    The probe is read-only (table matching draws no randomness), so a
    None return leaves the run's RNG streams untouched for the scalar
    fallback.
    """
    addresses = group.addresses()
    index_of = {address: i for i, address in enumerate(addresses)}
    tree_depth = group.tree.depth
    spec = _CompatSpec()
    spec.addresses = addresses
    spec.index_of = index_of
    spec.tree_depth = tree_depth
    components: List[Tuple[int, ...]] = []
    own_match: List[bool] = []
    alive: List[bool] = []
    received: List[bool] = []
    delivered: List[bool] = []
    node_matches: List[Tuple[_DepthMatch, ...]] = []
    matches: Dict[Tuple[int, int], _DepthMatch] = {}
    can_flood = group.config.leaf_flood_threshold <= 1.0
    try:
        for address in addresses:
            node = group.node(address)
            if not node.is_idle:
                # Another event is mid-flight on the object model; the
                # single-event arrays cannot represent it.
                return None
            if len(address.components) != tree_depth:
                return None
            components.append(address.components)
            own_match.append(node.interest.matches(event))
            alive.append(node.alive)
            received.append(node.has_received(event))
            delivered.append(node.has_delivered(event))
            per_depth = []
            for depth in range(1, tree_depth + 1):
                table = node.view(depth)
                key = (depth, id(table))
                flat = matches.get(key)
                if flat is None:
                    match = ctx.table_match(table, event)
                    entries = []
                    for entry_address in match.entries:
                        entry_index = index_of.get(entry_address)
                        if entry_index is None:
                            return None
                        entries.append(entry_index)
                    mask = [
                        entry_address in match.matching
                        for entry_address in match.entries
                    ]
                    pos = {
                        entry: position
                        for position, entry in enumerate(entries)
                    }
                    if depth == tree_depth and can_flood:
                        flood_targets = [
                            index_of[target]
                            for target in sorted(match.matching)
                            if target in index_of
                        ]
                    else:
                        flood_targets = []
                    flat = _DepthMatch(
                        entries, mask, pos, match.rate, flood_targets
                    )
                    matches[key] = flat
                per_depth.append(flat)
            node_matches.append(tuple(per_depth))
    except ProtocolError:
        # e.g. an unpopulated view: let the scalar engine surface it
        # with its native timing and message.
        return None
    spec.components = components
    spec.own_match = own_match
    spec.alive = alive
    spec.received = received
    spec.delivered = delivered
    spec.node_matches = node_matches
    return spec


#: One compat-kernel envelope: ``(dest, depth, entry_round, entry_rate,
#: sender)``, member indices for dest and sender.
_Envelope = Tuple[int, int, int, float, int]


class _CompatRun:
    """One compat-kernel run: the struct-of-arrays state and the bodies
    both drivers share.

    :meth:`fire` is one process's GOSSIP firing and :meth:`receive` one
    transmitted batch; the round driver calls them per round, the event
    driver per timer and per flush.  Either way every destination draw
    goes through the one :func:`sample_positions` call and every loss
    draw through the one ``transmit_flags`` call, in the scalar loop's
    order.
    """

    __slots__ = (
        "variant", "network", "crash_schedule", "emit", "addresses",
        "index_of", "components", "node_matches", "tree_depth", "config",
        "fanout", "flood_threshold", "randbelow", "event_id", "publisher",
        "alive", "received", "delivered", "own_match", "buf_depth",
        "buf_round", "buf_rate", "sent_count", "recv_count", "in_active",
        "active_count", "infected", "infected_count", "infection_curve",
        "messages_by_distance", "meters",
    )

    def __init__(
        self,
        variant: PmcastVariant,
        spec: _CompatSpec,
        network: LossyNetwork,
        crash_schedule: CrashSchedule,
        registry: MetricsRegistry,
    ) -> None:
        event = variant.event
        ctx = variant.ctx
        config = variant.group.config
        pub = spec.index_of[variant.publisher]
        # PMCAST bootstrap (Figure 3 lines 24-25).
        if spec.received[pub]:
            raise ProtocolError(f"event {event.event_id} already published")
        self.variant = variant
        self.network = network
        self.crash_schedule = crash_schedule
        self.emit: Optional[Emit] = None
        self.addresses = spec.addresses
        self.index_of = spec.index_of
        self.components = spec.components
        self.node_matches = spec.node_matches
        self.tree_depth = spec.tree_depth
        self.config = config
        self.fanout = config.fanout
        self.flood_threshold = config.leaf_flood_threshold
        self.randbelow = ctx.rng._randbelow
        self.event_id = event.event_id
        self.publisher = pub
        self.alive = spec.alive
        self.received = spec.received
        self.delivered = spec.delivered
        self.own_match = spec.own_match
        n = len(spec.addresses)
        self.received[pub] = True
        if self.own_match[pub]:
            self.delivered[pub] = True
        publish_depth = (
            variant.origin._shortcut_depth(event, ctx)
            if config.local_interest_shortcut
            else 1
        )
        self.buf_depth = [0] * n
        self.buf_round = [0] * n
        self.buf_rate = [0.0] * n
        self.buf_depth[pub] = publish_depth
        self.buf_rate[pub] = spec.node_matches[pub][publish_depth - 1].rate
        self.sent_count = [0] * n
        self.recv_count = [0] * n
        self.in_active = [False] * n
        self.in_active[pub] = True
        self.active_count = 1
        self.infected = [False] * n
        self.infected[pub] = True
        self.infected_count = 1
        self.infection_curve: List[int] = []
        self.messages_by_distance = [0] * spec.tree_depth
        self.meters = None
        if registry.enabled:
            self.meters = (
                registry.counter("vector", "rounds"),
                registry.counter("vector", "envelopes"),
                registry.counter("vector", "losses"),
                registry.gauge("vector", "infected"),
            )

    def begin(self, emit: Optional[Emit]) -> None:
        """Attach the trace emitter and record the publish (round 0)."""
        self.emit = emit
        if emit is not None:
            publisher = self.addresses[self.publisher]
            emit(0, "publish", publisher, event_id=self.event_id)
            if self.delivered[self.publisher]:
                emit(0, "deliver", publisher, event_id=self.event_id)

    def crash(self, round_index: int) -> None:
        """The crash step at the top of round ``round_index``."""
        emit = self.emit
        alive = self.alive
        in_active = self.in_active
        for victim in self.crash_schedule.crashes_at(round_index):
            vi = self.index_of.get(victim)
            if vi is None:
                raise SimulationError(f"{victim} is not in the group")
            if not alive[vi]:
                continue
            alive[vi] = False
            if in_active[vi]:
                in_active[vi] = False
                self.active_count -= 1
            if emit is not None:
                emit(round_index + 1, "crash", victim)

    def fire(self, i: int, out: List[_Envelope]) -> bool:
        """Process ``i``'s GOSSIP firing (Figure 3 lines 4-18) into ``out``.

        Depths ascend with same-firing demotion cascades; a §6 leaf
        flood sends to every interested leaf peer without advancing the
        round and retires the entry.  Every envelope is counted by
        distance before loss (§2.2).  Returns whether ``i`` still holds
        a buffered entry; a retired process leaves the active set.
        """
        tree_depth = self.tree_depth
        depth = self.buf_depth[i]
        entry_round = self.buf_round[i]
        entry_rate = self.buf_rate[i]
        matches_i = self.node_matches[i]
        start = len(out)
        while True:
            flat = matches_i[depth - 1]
            if depth == tree_depth and flat.rate >= self.flood_threshold:
                # §6 leaf flood: round NOT incremented, retire.
                for target in flat.flood_targets:
                    if target != i:
                        out.append((target, depth, entry_round, entry_rate, i))
                depth = 0
                break
            bound = flat.bound_for(entry_rate, self.config)
            if entry_round < bound:
                entry_round += 1
                selfpos = flat.pos.get(i, -1)
                m = flat.entry_count - (1 if selfpos >= 0 else 0)
                if m > 0:
                    entries = flat.entries
                    mask = flat.mask
                    fanout = self.fanout
                    count = fanout if fanout < m else m
                    for j in sample_positions(self.randbelow, m, count):
                        if selfpos >= 0 and j >= selfpos:
                            j += 1
                        if mask[j]:
                            out.append(
                                (entries[j], depth, entry_round, entry_rate, i)
                            )
                break
            elif depth < tree_depth:
                depth += 1
                entry_round = 0
                entry_rate = matches_i[depth - 1].rate
            else:
                depth = 0
                break
        emitted = len(out) - start
        if emitted:
            self.sent_count[i] += emitted
            components = self.components
            by_distance = self.messages_by_distance
            sc = components[i]
            for position in range(start, start + emitted):
                dc = components[out[position][0]]
                common = 0
                while common < tree_depth and sc[common] == dc[common]:
                    common += 1
                by_distance[tree_depth - 1 - common] += 1
        self.buf_depth[i] = depth
        self.buf_round[i] = entry_round
        self.buf_rate[i] = entry_rate
        if depth == 0:
            self.in_active[i] = False
            self.active_count -= 1
            return False
        return True

    def receive(self, batch: List[_Envelope], rounds: int) -> List[int]:
        """Transmit one batch and apply its receptions (lines 19-23).

        Draws the batch's loss verdicts, records every envelope's
        send/loss disposition before any reception (the scalar order),
        then hands surviving envelopes to live receivers in batch order.
        Returns the receivers that became active, in batch order.
        """
        flags = self.network.transmit_flags(len(batch))
        emit = self.emit
        addresses = self.addresses
        event_id = self.event_id
        if emit is not None:
            for position, envelope in enumerate(batch):
                dest, depth, __, ___, sender = envelope
                emit(
                    rounds,
                    "send" if flags is None or flags[position] else "loss",
                    addresses[sender],
                    peer=addresses[dest],
                    event_id=event_id,
                    depth=depth,
                )
        if flags is not None:
            batch = [
                envelope for envelope, kept in zip(batch, flags) if kept
            ]
        alive = self.alive
        received = self.received
        delivered = self.delivered
        own_match = self.own_match
        infected = self.infected
        in_active = self.in_active
        recv_count = self.recv_count
        buf_depth = self.buf_depth
        buf_round = self.buf_round
        buf_rate = self.buf_rate
        infected_count = self.infected_count
        activated: List[int] = []
        for dest, depth, entry_round, entry_rate, sender in batch:
            if not alive[dest]:
                continue
            recv_count[dest] += 1
            if emit is not None:
                emit(
                    rounds,
                    "receive",
                    addresses[dest],
                    peer=addresses[sender],
                    event_id=event_id,
                    depth=depth,
                )
            if received[dest]:
                if not infected[dest]:
                    infected[dest] = True
                    infected_count += 1
                continue
            received[dest] = True
            if own_match[dest]:
                delivered[dest] = True
                if emit is not None:
                    emit(rounds, "deliver", addresses[dest], event_id=event_id)
            buf_depth[dest] = depth
            buf_round[dest] = entry_round
            buf_rate[dest] = entry_rate
            if not infected[dest]:
                infected[dest] = True
                infected_count += 1
            if not in_active[dest]:
                in_active[dest] = True
                activated.append(dest)
        self.infected_count = infected_count
        self.active_count += len(activated)
        if self.meters is not None:
            __, envelopes, losses, ___ = self.meters
            envelopes.inc(len(flags) if flags is not None else len(batch))
            if flags is not None:
                losses.inc(len(flags) - len(batch))
        return activated

    def sample(self) -> None:
        """Close one round: its infection-curve sample."""
        self.infection_curve.append(self.infected_count)
        if self.meters is not None:
            rounds, __, ___, infected = self.meters
            rounds.inc()
            infected.set(self.infected_count)

    def finish(self, rounds: int) -> DisseminationReport:
        """Write the outcome back through the object model and score it.

        Every scalar inspection API (liveness, delivery sets, message
        counters, leftover buffers) stays truthful after a kernel run,
        and the report comes from the variant's own arithmetic.
        """
        variant = self.variant
        group = variant.group
        event = variant.event
        for i, address in enumerate(self.addresses):
            buffered = None
            if self.buf_depth[i] > 0:
                buffered = (self.buf_depth[i], self.buf_rate[i], self.buf_round[i])
            group.node(address).restore_outcome(
                event,
                alive=self.alive[i],
                received=self.received[i],
                delivered=self.delivered[i],
                sent_delta=self.sent_count[i],
                receptions_delta=self.recv_count[i],
                buffered=buffered,
            )
        return assemble_pmcast_report(
            group,
            variant.publisher,
            event,
            variant.interested,
            self.infected_count,
            rounds,
            tuple(self.infection_curve),
            tuple(self.messages_by_distance),
            self.network.messages_lost,
            self.crash_schedule.victim_count,
            sent_before=variant.sent_before,
            receptions_before=variant.receptions_before,
        )


def _round_driver(
    run: _CompatRun, max_rounds: int, timeline: Optional[TimelineRecorder]
) -> int:
    """The engine's round loop over the shared bodies; returns rounds.

    Firings go in active-set insertion order (the scalar engine's dict
    order): survivors keep their place, newly activated receivers
    append in batch order.
    """
    fire = run.fire
    in_active = run.in_active
    active_list = [run.publisher]
    rounds = 0
    for round_index in range(max_rounds):
        run.crash(round_index)
        if run.active_count == 0:
            break
        rounds = round_index + 1
        envelopes: List[_Envelope] = []
        with (
            timeline.span("fan_out", "vector", rounds)
            if timeline is not None
            else NULL_SPAN
        ):
            next_active = [
                i for i in active_list if in_active[i] and fire(i, envelopes)
            ]
        with (
            timeline.span("exchange", "vector", rounds)
            if timeline is not None
            else NULL_SPAN
        ):
            next_active.extend(run.receive(envelopes, rounds))
        active_list = next_active
        run.sample()
    return rounds


def _event_driver(
    run: _CompatRun,
    max_rounds: int,
    schedule: Schedule,
    latency_us: int,
    event_records: bool,
) -> int:
    """The virtual-clock event loop over the shared bodies; returns rounds.

    Mirrors :func:`repro.variants.base._event_loop` event for event:
    boundary, timer and flush entries ordered ``(time_us, priority,
    seq)``; a timer armed at ``schedule.next_fire`` past the arming
    instant; one flush batch per send instant at ``now + latency_us``,
    opened by the instant's first envelope; receivers that became
    active armed after their batch, in batch order (the scalar loop's
    seq order).  Timers of crashed or retired processes are skipped on
    pop without touching any RNG.
    """
    # repro.net imports this module while loading (through
    # repro.net.runtime), so the clock constants load on first use.
    from repro.net.clock import (
        PRIORITY_BOUNDARY,
        PRIORITY_FLUSH,
        PRIORITY_TIMER,
    )

    period_us = schedule.period_us
    next_fire = schedule.next_fire
    fire = run.fire
    receive = run.receive
    in_active = run.in_active
    addresses = run.addresses
    keys: List[Optional[str]] = [None] * len(addresses)
    emit = run.emit if event_records else None
    event_id = run.event_id
    heap: List[Tuple[int, int, int, int]] = []
    seq = itertools.count()
    #: Flush instant -> the envelopes sent for it, in send order.
    batches: Dict[int, List[_Envelope]] = {}

    def arm(i: int, now_us: int) -> None:
        key = keys[i]
        if key is None:
            key = keys[i] = str(addresses[i])
        heappush(
            heap, (next_fire(key, now_us)[1], PRIORITY_TIMER, next(seq), i)
        )

    # Boundary r (at (r+1)·P, before that instant's timers) is the top
    # of round-loop iteration r; its payload is r.
    heappush(heap, (period_us, PRIORITY_BOUNDARY, next(seq), 0))
    arm(run.publisher, 0)
    rounds = 0
    while heap:
        now_us, priority, __, item = heappop(heap)
        if priority == PRIORITY_TIMER:
            if not in_active[item]:
                continue
            if emit is not None:
                emit(
                    None, "timer_fire", addresses[item],
                    event_id=event_id, time_us=now_us,
                )
            flush_us = now_us + latency_us
            batch = batches.get(flush_us)
            opened = batch is None
            if opened:
                batch = []
            still_active = fire(item, batch)
            if opened and batch:
                batches[flush_us] = batch
                heappush(heap, (flush_us, PRIORITY_FLUSH, next(seq), 0))
            if still_active:
                arm(item, now_us)
        elif priority == PRIORITY_FLUSH:
            for i in receive(batches.pop(now_us), rounds):
                arm(i, now_us)
        else:
            if item > 0:
                # The sample of the round that just completed.
                run.sample()
            if item >= max_rounds:
                break
            run.crash(item)
            if run.active_count == 0 and not batches:
                break
            rounds = item + 1
            heappush(
                heap,
                (now_us + period_us, PRIORITY_BOUNDARY, next(seq), item + 1),
            )
    return rounds


def try_run_vectorized(
    variant: PmcastVariant,
    sim_config: SimConfig,
    network: LossyNetwork,
    crash_schedule: CrashSchedule,
    trace: Optional[TraceLog] = None,
    sampler: Optional[TraceSampler] = None,
    registry: Optional[MetricsRegistry] = None,
    timeline: Optional[TimelineRecorder] = None,
    schedule: Optional[Schedule] = None,
    latency_us: Optional[int] = None,
    event_records: bool = False,
) -> Optional[DisseminationReport]:
    """Run one dissemination on the compat kernel, or None to fall back.

    Executes the freshly built ``variant`` (its group, publisher, event,
    gossip context, ground truth and trace metadata) without ever
    calling its scalar hooks.  Without a ``schedule`` it runs the
    engine's round loop; with one, the event loop of
    :func:`repro.variants.base.run_variant` (``latency_us`` already
    validated by the caller, ``event_records`` adding ``timer_fire``
    records).  Stream-compatible with the scalar driver either way:
    same gossip/loss draws in the same order, the same trace records in
    the same order (optionally filtered through ``sampler``), and the
    object model (node liveness, delivery sets, message counters,
    leftover buffers) is written back before the run is scored by the
    variant's own report arithmetic, so post-run inspection cannot tell
    the paths apart.  ``registry`` receives ``vector.*`` counters;
    ``timeline`` receives ``match`` and the round loop's per-round
    ``fan_out``/``exchange`` spans — both out of band.
    """
    registry = registry_or_null(registry)
    with (
        timeline.span("match", "vector")
        if timeline is not None
        else NULL_SPAN
    ):
        spec = _build_compat_spec(variant.group, variant.event, variant.ctx)
    if spec is None:
        return None

    run = _CompatRun(variant, spec, network, crash_schedule, registry)
    run.begin(
        open_trace(
            variant, trace, sampler, None, schedule, latency_us,
            event_records,
        )
    )
    if schedule is None:
        rounds = _round_driver(run, sim_config.max_rounds, timeline)
    else:
        rounds = _event_driver(
            run, sim_config.max_rounds, schedule, latency_us, event_records
        )

    if timeline is not None:
        timeline.probe_memory(subsystem="vector", round_index=rounds)
    if trace is not None:
        trace.annotate(rounds=rounds)
    if registry.enabled:
        registry.counter("vector", "runs").inc()
        registry.counter("vector", "receptions").inc(sum(run.recv_count))
    return run.finish(rounds)


# ---------------------------------------------------------------------------
# Regular-tree kernel: numpy arrays + sharded subtree waves.
# ---------------------------------------------------------------------------

def _index_address(index: int, arity: int, depth: int) -> str:
    """The dotted address string of a regular-tree member index.

    The regular space enumerates members in sorted order, so the index
    is the base-``arity`` reading of the address components — the
    inverse of the block arithmetic the kernel runs on.  Used to key
    sampling decisions and trace records by the same strings the
    object-model engine uses.
    """
    parts = [0] * depth
    for position in range(depth - 1, -1, -1):
        parts[position] = index % arity
        index //= arity
    return ".".join(str(part) for part in parts)


@dataclass
class _DepthTables:
    """Precomputed per-depth matching tables for the regular tree.

    ``eff_mask[sub, e]`` answers Figure 3's line-13 interest check for
    entry ``e`` of subgroup ``sub``'s view; ``rate``/``bound``/``flood``
    are GETRATE, the line-7 round bound and the §6 flood verdict for
    that subgroup.  Valid as global constants because every member of a
    subgroup shares the subgroup's converged view, and every buffered
    entry carries that view's rate (sender and receiver of a depth-δ
    gossip share the δ-1 prefix).
    """

    block: int       # subgroup block size at this depth
    child: int       # per-row child block size (block // arity)
    length: int      # entries per view
    template: np.ndarray    # (length,) member offsets within a block
    eff_mask: np.ndarray    # (num_sub, length) effective interest
    rate: np.ndarray        # (num_sub,)
    bound: np.ndarray       # (num_sub,) integer round bounds
    flood: Optional[np.ndarray] = None  # (num_sub,) leaf flood verdict


def _vector_bounds(length: int, rate: np.ndarray, config: PmcastConfig) -> np.ndarray:
    """`repro.core.rounds` (Eqs 3/11 + clamp), elementwise over subgroups."""
    n_eff = length * rate
    f_eff = config.fanout * rate
    c = config.pittel_c
    if config.loss_aware_rounds:
        scale = (1.0 - config.assumed_loss) * (1.0 - config.assumed_crash)
        n_eff = n_eff * scale
        f_eff = f_eff * scale
    estimate = np.full(rate.shape, max(c, 0.0))
    live = n_eff > 1.0
    if live.any():
        # rate > 0 wherever n_eff > 1, so f_eff > 0 there too.
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = (
                np.log(n_eff)
                * (1.0 / f_eff + 1.0 / np.log(f_eff + 1.0))
                + c
            )
        estimate[live] = np.maximum(raw[live], 0.0)
    bounds = np.where(
        np.isinf(estimate),
        config.max_rounds_per_depth,
        np.clip(
            np.ceil(estimate),
            config.min_rounds_per_depth,
            config.max_rounds_per_depth,
        ),
    )
    return bounds.astype(np.int64)


@dataclass
class RegularTreeSpec:
    """A synthetic full regular tree, flattened for the numpy kernel.

    Members are the ``arity ** depth`` addresses of the regular space
    in sorted order, so every subgroup at depth δ is the contiguous
    index block ``[sub * block, (sub+1) * block)`` and the delegates of
    a subtree are its first ``redundancy`` indices (the R smallest
    addresses — the :class:`~repro.membership.tree.MembershipTree`
    election rule).  Interest regrouping is the exact union: a row
    matches iff any member of its subtree does.
    """

    arity: int
    depth: int
    redundancy: int
    config: PmcastConfig
    loss_probability: float
    crash_fraction: float
    seed: int
    event_id: int
    max_rounds: int
    publisher: int
    own_match: np.ndarray
    tables: List[_DepthTables] = field(default_factory=list)
    #: Optional trace sampling rate (None = no tracing).  Sampling keys
    #: are the dotted address strings, so the sampled subset is
    #: identical at any worker count (and to any other producer that
    #: traces the same processes at the same rate).
    trace_rate: Optional[float] = None

    @property
    def size(self) -> int:
        return self.arity ** self.depth

    @property
    def shard_size(self) -> int:
        """One depth-1 subtree per shard."""
        return self.arity ** (self.depth - 1)

    @property
    def num_shards(self) -> int:
        return self.arity

    @classmethod
    def build(
        cls,
        arity: int,
        depth: int,
        own_match: np.ndarray,
        config: Optional[PmcastConfig] = None,
        sim_config: Optional[SimConfig] = None,
        publisher: int = 0,
        event_id: int = 0,
        trace_rate: Optional[float] = None,
    ) -> "RegularTreeSpec":
        config = config or PmcastConfig()
        sim_config = sim_config or SimConfig()
        if depth < 2:
            raise VectorUnsupported(
                "sharded subtree simulation needs tree depth >= 2"
            )
        if arity < 2:
            raise VectorUnsupported("regular tree arity must be >= 2")
        if config.redundancy > arity:
            raise VectorUnsupported(
                f"redundancy R={config.redundancy} exceeds arity {arity}: "
                "the smallest child blocks cannot seat R delegates"
            )
        if config.local_interest_shortcut:
            raise VectorUnsupported(
                "the §3.2 shortcut is publisher-local state the regular-"
                "tree kernel does not model"
            )
        n = arity ** depth
        own_match = np.asarray(own_match, dtype=bool)
        if own_match.shape != (n,):
            raise VectorUnsupported(
                f"own_match must have shape ({n},), got {own_match.shape}"
            )
        if not 0 <= publisher < n:
            raise VectorUnsupported(f"publisher index {publisher} out of range")
        spec = cls(
            arity=arity,
            depth=depth,
            redundancy=config.redundancy,
            config=config,
            loss_probability=sim_config.loss_probability,
            crash_fraction=sim_config.crash_fraction,
            seed=sim_config.seed,
            event_id=event_id,
            max_rounds=sim_config.max_rounds,
            publisher=publisher,
            own_match=own_match,
            trace_rate=trace_rate,
        )
        spec.tables = spec._build_tables()
        return spec

    def _build_tables(self) -> List[_DepthTables]:
        a, d, r = self.arity, self.depth, self.redundancy
        config = self.config
        tables: List[_DepthTables] = []
        for depth in range(1, d + 1):
            block = a ** (d - depth + 1)
            child = a ** (d - depth)
            num_sub = self.size // block
            if depth < d:
                child_any = self.own_match.reshape(num_sub * a, child).any(
                    axis=1
                )
                rows = child_any.reshape(num_sub, a)
                ent = np.repeat(rows, r, axis=1)
                length = a * r
                template = (
                    np.arange(a)[:, None] * child + np.arange(r)
                ).ravel()
            else:
                ent = self.own_match.reshape(num_sub, a).copy()
                length = a
                template = np.arange(a)
            if config.threshold_h > 0:
                need = ent.sum(axis=1) < config.threshold_h
                if need.any():
                    # §5.3: conscript the first h view entries.
                    ent[need] |= np.arange(length) < config.threshold_h
            rate = ent.sum(axis=1) / length
            tables.append(
                _DepthTables(
                    block=block,
                    child=child,
                    length=length,
                    template=template,
                    eff_mask=ent,
                    rate=rate,
                    bound=_vector_bounds(length, rate, config),
                    flood=(
                        rate >= config.leaf_flood_threshold
                        if depth == d
                        else None
                    ),
                )
            )
        return tables


def _shard_record(
    round_index: int,
    kind: str,
    process: str,
    event_id: int,
    peer: Optional[str] = None,
    depth: int = 0,
) -> Dict[str, object]:
    """One trace record as its JSONL dict (the shape ``TraceRecord.
    to_dict`` emits, ``value`` omitted because it is always 0 here)."""
    return {
        "round": round_index,
        "kind": kind,
        "process": process,
        "peer": peer,
        "event_id": event_id,
        "depth": depth,
    }


@dataclass
class ShardState:
    """The mutable struct-of-arrays state of one depth-1 subtree.

    Round-trips through the :class:`~repro.par.TrialExecutor` between
    waves; carries its spec so a wave task is one self-contained
    picklable object.
    """

    spec: RegularTreeSpec
    shard: int
    base: int
    alive: np.ndarray       # bool (B,)
    received: np.ndarray    # bool (B,)
    buf_depth: np.ndarray   # int8 (B,), 0 = not buffered
    buf_round: np.ndarray   # int16 (B,)
    doomed: np.ndarray      # bool (B,)
    doom_round: np.ndarray  # int32 (B,)
    crash_cursor: int = 0
    sent: int = 0
    recv: int = 0
    lost: int = 0
    dist: np.ndarray = None  # (depth,) int64 distance buckets
    #: Trace plumbing when ``spec.trace_rate`` is set: per-kind keep
    #: masks (bool (B,)), the members' dotted-address strings, and the
    #: accumulated record dicts.  Plain dicts/lists/arrays so the state
    #: round-trips through the executor's pickle unchanged.
    trace: Optional[Dict[str, object]] = None

    @classmethod
    def create(
        cls, spec: RegularTreeSpec, shard: int, publisher_immune: bool = True
    ) -> "ShardState":
        """Initial state: everyone clean, crash plan pre-drawn.

        The crash stream is per shard (label ``"vcrash"``), so the plan
        is identical at any worker count.  ``publisher_immune`` mirrors
        the conformance harness's convention of never crashing the
        publisher (a dead publisher measures nothing).
        """
        size = spec.shard_size
        base = shard * size
        rng = np.random.default_rng(
            derive_seed(spec.seed, "vcrash", spec.event_id, shard)
        )
        tau = spec.crash_fraction
        if tau > 0.0:
            doomed = rng.random(size) < tau
            doom_round = rng.integers(
                0, spec.max_rounds, size, dtype=np.int32
            )
        else:
            doomed = np.zeros(size, dtype=bool)
            doom_round = np.zeros(size, dtype=np.int32)
        state = cls(
            spec=spec,
            shard=shard,
            base=base,
            alive=np.ones(size, dtype=bool),
            received=np.zeros(size, dtype=bool),
            buf_depth=np.zeros(size, dtype=np.int8),
            buf_round=np.zeros(size, dtype=np.int16),
            doomed=doomed,
            doom_round=doom_round,
            dist=np.zeros(spec.depth, dtype=np.int64),
        )
        rate = spec.trace_rate
        if rate is not None:
            addresses = [
                _index_address(base + i, spec.arity, spec.depth)
                for i in range(size)
            ]
            event_id = spec.event_id
            state.trace = {
                "addresses": addresses,
                "records": [],
                **{
                    kind: np.asarray(
                        keep_mask(kind, addresses, event_id, rate)
                    )
                    for kind in ("send", "loss", "receive", "deliver")
                },
                # Crash is a membership-plane record: the engine emits
                # it with event_id 0, so the sampling key matches.
                "crash": np.asarray(
                    keep_mask("crash", addresses, 0, rate)
                ),
            }
        publisher = spec.publisher
        if base <= publisher < base + size:
            local = publisher - base
            if publisher_immune:
                state.doomed[local] = False
            # PMCAST bootstrap: buffer at depth 1, round 0.
            state.received[local] = True
            state.buf_depth[local] = 1
            if state.trace is not None:
                address = state.trace["addresses"][local]
                records = state.trace["records"]
                if keep("publish", address, spec.event_id, rate):
                    records.append(
                        _shard_record(0, "publish", address, spec.event_id)
                    )
                if spec.own_match[publisher] and state.trace["deliver"][local]:
                    records.append(
                        _shard_record(0, "deliver", address, spec.event_id)
                    )
        return state

    @property
    def busy(self) -> bool:
        """True while a live member is still gossiping."""
        return bool((self.alive & (self.buf_depth > 0)).any())

    @property
    def infected(self) -> int:
        return int(self.received.sum())


def _advance_crashes(state: ShardState, upto: int) -> None:
    """Apply every crash scheduled in rounds [cursor, upto)."""
    if state.crash_cursor >= upto:
        return
    sel = (
        state.doomed
        & (state.doom_round >= state.crash_cursor)
        & (state.doom_round < upto)
    )
    if sel.any():
        state.alive[sel] = False
        trace = state.trace
        if trace is not None:
            kept = np.nonzero(sel & trace["crash"])[0]
            if kept.size:
                # Record at doom_round + 1 (the scalar convention),
                # ordered by round so the shard file stays monotone.
                order = np.argsort(state.doom_round[kept], kind="stable")
                addresses = trace["addresses"]
                records = trace["records"]
                for local in kept[order]:
                    records.append(
                        _shard_record(
                            int(state.doom_round[local]) + 1,
                            "crash",
                            addresses[local],
                            0,
                        )
                    )
    state.crash_cursor = upto


def _draw_distinct(gen, rows: int, n: int, k: int) -> np.ndarray:
    """``rows`` independent draws of ``k`` distinct values below ``n``.

    Rejection sampling over whole rows: a row with a repeated value is
    redrawn until clean, which conditions the uniform i.i.d. matrix on
    per-row distinctness — the distribution of an ordered sample
    without replacement.
    """
    draws = gen.integers(0, n, size=(rows, k))
    while True:
        ordered = np.sort(draws, axis=1)
        bad = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if not bad.any():
            return draws
        draws[bad] = gen.integers(0, n, size=(int(bad.sum()), k))


def _apply_receptions(
    state: ShardState,
    local: np.ndarray,
    depths: np.ndarray,
    rounds: np.ndarray,
    trace_round: int = 0,
) -> None:
    """RECEIVE for a batch of envelopes, first-in-batch-order wins.

    ``trace_round`` is the *simulation* round the receptions happen in
    (the ``rounds`` array is buffer entry-round counters, not rounds);
    sampled receive/deliver records are stamped with it.  Cross-shard
    envelopes lose their sender in the exchange, so sharded receive
    records uniformly carry ``peer: null``.
    """
    ok = state.alive[local]
    if not ok.all():
        local, depths, rounds = local[ok], depths[ok], rounds[ok]
    state.recv += int(local.size)
    if not local.size:
        return
    trace = state.trace
    if trace is not None:
        kept = np.nonzero(trace["receive"][local])[0]
        if kept.size:
            addresses = trace["addresses"]
            records = trace["records"]
            event_id = state.spec.event_id
            for position in kept:
                records.append(
                    _shard_record(
                        trace_round,
                        "receive",
                        addresses[local[position]],
                        event_id,
                        depth=int(depths[position]),
                    )
                )
    fresh = ~state.received[local]
    if not fresh.any():
        return
    local, depths, rounds = local[fresh], depths[fresh], rounds[fresh]
    uniq, first = np.unique(local, return_index=True)
    state.received[uniq] = True
    state.buf_depth[uniq] = depths[first]
    state.buf_round[uniq] = rounds[first]
    if trace is not None:
        spec = state.spec
        delivering = np.nonzero(
            trace["deliver"][uniq] & spec.own_match[uniq + state.base]
        )[0]
        if delivering.size:
            addresses = trace["addresses"]
            records = trace["records"]
            event_id = spec.event_id
            for position in delivering:
                records.append(
                    _shard_record(
                        trace_round,
                        "deliver",
                        addresses[uniq[position]],
                        event_id,
                    )
                )


def run_shard_wave(
    state: ShardState,
    inbound_dest: Optional[np.ndarray],
    inbound_round: Optional[np.ndarray],
    round_index: int,
) -> Tuple[ShardState, np.ndarray, np.ndarray, bool, int]:
    """One synchronous round for one shard.

    Wave order reproduces the unsharded engine's timing exactly:
    envelopes that crossed a shard boundary in round ``r`` are applied
    at the start of wave ``r+1``, *before* round ``r+1``'s crashes —
    the same protocol state a monolithic round loop reaches, because a
    round-``r`` reception is only ever acted on in round ``r+1``.
    (Only the infection curve sees cross-shard receptions one round
    late; final counts are unaffected.)

    Returns ``(state, out_dest, out_round, busy, infected)`` where the
    out arrays are the surviving cross-shard envelopes (always depth 1
    — deeper gossip stays inside the sender's depth-1 block).
    """
    spec = state.spec
    base = state.base
    depth_count = spec.depth
    fanout = spec.config.fanout
    redundancy = spec.redundancy
    recv_before = state.recv

    _advance_crashes(state, round_index)
    if inbound_dest is not None and inbound_dest.size:
        # Cross-shard envelopes were sent during the previous wave
        # (simulation round ``round_index``), so their receive records
        # carry the same round as their send records.
        _apply_receptions(
            state,
            inbound_dest - base,
            np.ones(inbound_dest.size, dtype=np.int8),
            inbound_round,
            trace_round=round_index,
        )
    _advance_crashes(state, round_index + 1)

    gen = np.random.default_rng(
        derive_seed(spec.seed, "subtree", spec.event_id, state.shard, round_index)
    )

    env_dest: List[np.ndarray] = []
    env_depth: List[np.ndarray] = []
    env_round: List[np.ndarray] = []
    env_sender: List[np.ndarray] = []

    for depth in range(1, depth_count + 1):
        table = spec.tables[depth - 1]
        sel = np.nonzero(state.alive & (state.buf_depth == depth))[0]
        if sel.size == 0:
            continue
        sub = (sel + base) // table.block

        if table.flood is not None:
            flooding = table.flood[sub]
            if flooding.any():
                flooders = sel[flooding]
                sub_f = sub[flooding]
                mask = table.eff_mask[sub_f].copy()
                selfrel = (flooders + base) % table.block
                mask[np.arange(flooders.size), selfrel] = False
                row_idx, col = np.nonzero(mask)
                env_dest.append(sub_f[row_idx] * table.block + col)
                env_depth.append(
                    np.full(row_idx.size, depth, dtype=np.int8)
                )
                env_round.append(
                    state.buf_round[flooders][row_idx].astype(np.int16)
                )
                env_sender.append(flooders[row_idx] + base)
                state.buf_depth[flooders] = 0
                sel = sel[~flooding]
                sub = sub[~flooding]
                if sel.size == 0:
                    continue

        bound = table.bound[sub]
        live = state.buf_round[sel] < bound
        expired = sel[~live]
        if expired.size:
            if depth < depth_count:
                # Demotion: picked up again at depth+1 in this same
                # wave, exactly the scalar cascade.
                state.buf_depth[expired] = depth + 1
                state.buf_round[expired] = 0
            else:
                state.buf_depth[expired] = 0
        gossipers = sel[live]
        if gossipers.size == 0:
            continue
        state.buf_round[gossipers] += 1
        sub_g = sub[live]
        rounds_g = state.buf_round[gossipers].astype(np.int16)
        selfrel = (gossipers + base) % table.block
        if depth < depth_count:
            child = selfrel // table.child
            remainder = selfrel % table.child
            selfpos = np.where(
                remainder < redundancy, child * redundancy + remainder, -1
            )
        else:
            selfpos = selfrel
        for has_self in (False, True):
            pick = (selfpos >= 0) == has_self
            if not pick.any():
                continue
            candidates = table.length - (1 if has_self else 0)
            if candidates <= 0:
                continue
            rows = int(pick.sum())
            count = min(fanout, candidates)
            if count == candidates:
                draws = np.tile(np.arange(candidates), (rows, 1))
            else:
                draws = _draw_distinct(gen, rows, candidates, count)
            if has_self:
                draws = draws + (draws >= selfpos[pick][:, None])
            sub_p = sub_g[pick]
            keep = table.eff_mask[sub_p[:, None], draws]
            dest = sub_p[:, None] * table.block + table.template[draws]
            shape = (rows, count)
            env_dest.append(dest[keep])
            env_depth.append(
                np.full(int(keep.sum()), depth, dtype=np.int8)
            )
            env_round.append(
                np.broadcast_to(rounds_g[pick][:, None], shape)[keep]
            )
            env_sender.append(
                np.broadcast_to(
                    (gossipers[pick] + base)[:, None], shape
                )[keep]
            )

    if env_dest:
        dest = np.concatenate(env_dest)
        depths = np.concatenate(env_depth)
        rounds = np.concatenate(env_round)
        senders = np.concatenate(env_sender)
    else:
        dest = np.empty(0, dtype=np.int64)
        depths = np.empty(0, dtype=np.int8)
        rounds = np.empty(0, dtype=np.int16)
        senders = np.empty(0, dtype=np.int64)

    total = int(dest.size)
    state.sent += total
    lost_here = 0
    if total:
        # §2.2 distance accounting, pre-loss.
        common = np.zeros(total, dtype=np.int64)
        for level in range(1, depth_count + 1):
            block = spec.arity ** (depth_count - level)
            common += senders // block == dest // block
        np.add.at(state.dist, depth_count - 1 - common, 1)
        kept = None
        if spec.loss_probability > 0.0:
            kept = gen.random(total) >= spec.loss_probability
            lost_here = total - int(kept.sum())
            state.lost += lost_here
        trace = state.trace
        if trace is not None:
            # Send/loss disposition per envelope, pre-filter (the loss
            # records need the dropped envelopes), keyed by the sender.
            sender_local = senders - base
            if kept is None:
                emitting = trace["send"][sender_local]
            else:
                emitting = np.where(
                    kept,
                    trace["send"][sender_local],
                    trace["loss"][sender_local],
                )
            chosen = np.nonzero(emitting)[0]
            if chosen.size:
                addresses = trace["addresses"]
                records = trace["records"]
                event_id = spec.event_id
                arity = spec.arity
                trace_round = round_index + 1
                for position in chosen:
                    records.append(
                        _shard_record(
                            trace_round,
                            "send"
                            if kept is None or kept[position]
                            else "loss",
                            addresses[sender_local[position]],
                            event_id,
                            peer=_index_address(
                                int(dest[position]), arity, depth_count
                            ),
                            depth=int(depths[position]),
                        )
                    )
        if kept is not None:
            dest, depths, rounds = dest[kept], depths[kept], rounds[kept]

    shard_size = spec.shard_size
    cross = dest // shard_size != state.shard
    out_dest = dest[cross]
    out_round = rounds[cross]
    if (~cross).any():
        _apply_receptions(
            state,
            dest[~cross] - base,
            depths[~cross],
            rounds[~cross],
            trace_round=round_index + 1,
        )

    # Local import: ``repro.par.__init__`` imports this module while
    # building the package, so a module-level import would cycle.
    from repro.par.worker import worker_registry

    registry = worker_registry()
    registry.counter("subtree", "waves").inc()
    registry.counter("subtree", "envelopes_sent").inc(total)
    registry.counter("subtree", "envelopes_lost").inc(lost_here)
    registry.counter("subtree", "cross_shard_envelopes").inc(
        int(out_dest.size)
    )
    registry.counter("subtree", "receptions").inc(state.recv - recv_before)

    return state, out_dest, out_round, state.busy, state.infected
