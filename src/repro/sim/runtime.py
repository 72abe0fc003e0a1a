"""A long-running group: dissemination + membership management together.

:func:`repro.sim.engine.run_dissemination` measures one event over a
*static* group.  :class:`GroupRuntime` is the live system of §2.3: in
every round, alongside the Figure 3 event gossip,

* each process runs one **gossip-pull** membership exchange — with a
  random immediate neighbor (its depth-d subgroup) and with a random
  more distant peer ("membership information can be piggybacked when
  gossiping events, or [...] propagated with dedicated gossips");
* each process feeds its **failure detector** from every contact: a
  received event gossip or a membership exchange both prove the sender
  alive ("every process keeps track of the last time it was contacted
  by its most immediate neighbor processes");
* when every live neighbor of a silent process has been suspecting it
  past the timeout (the §6 leaf-subgroup *agreement* hardening — the
  runtime keeps the per-suspect accuser sets of
  :class:`~repro.membership.failure_detector.SuspicionQuorum` in
  flattened form), the process is **excluded**: removed from the
  membership and from the views along its prefix path.

Processes crash silently through :meth:`GroupRuntime.crash`; the
runtime exposes how long detection and exclusion took, and publishes
keep flowing before, during and after.

Scheduling is **active-set** based: an event round only visits the
processes that actually buffer an event (*infected* processes), so a
round costs O(infected), not O(n) — at paper scale almost every node
is idle almost always.  Skipping an idle node is free of side effects:
its GOSSIP task returns immediately without drawing randomness, so the
active-set walk consumes the shared RNG exactly like the full scan,
provided the visit *order* matches.  The runtime therefore stamps each
node with a wiring sequence number and walks the active set in that
order — the same order the full scan would use.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.addressing import Address, Prefix, component_key
from repro.config import PmcastConfig, SimConfig
from repro.core.context import GossipContext
from repro.core.messages import Envelope
from repro.core.node import PmcastNode
from repro.errors import MembershipError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.interests.events import Event
from repro.interests.subscriptions import Interest
from repro.membership.failure_detector import FailureDetector
from repro.membership.gossip_pull import (
    _ADDR_TOKENS,
    _CACHE_TOKENS,
    MembershipState,
    _find_group,
    _pull,
    exchange,
)
from repro.membership.knowledge import build_view, refreshed_rows
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewTable
from repro.net.scheduler import Schedule
from repro.obs.probes import NULL_OBSERVER, Observer
from repro.obs.timeline import NULL_SPAN
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_rng
from repro.variants.base import emit_dispositions

__all__ = ["GroupRuntime"]


class GroupRuntime:
    """A running pmcast group with live membership management.

    Args:
        members: initial member -> interest mapping.
        config: protocol parameters.
        sim_config: loss/seed environment.
        detector_timeout: rounds of silence before a neighbor suspects
            a process (§2.3).
        exclusion_quorum: how many distinct neighbors must concur
            before exclusion; ``None`` requires *all* live neighbors
            (the §6 agreement variant).
        piggyback_membership: when True, every delivered event gossip
            also carries membership information — the receiver pulls
            from the sender's replica ("membership information can be
            piggybacked when gossiping events", §2.3), accelerating
            view convergence wherever events already flow.
        observer: an optional :class:`~repro.obs.probes.Observer`.
            Its registry receives per-subsystem counters (``runtime``,
            ``membership``, ``views``, ``detector``, ``gossip_pull``,
            ``match_cache``); when a trace destination is attached,
            every protocol action — event gossip, membership pulls,
            join/leave/crash, suspicions, exclusions, view refreshes —
            is emitted as a :class:`~repro.obs.trace.TraceRecord`.
            Observation never draws randomness: an observed run is
            bit-identical to an unobserved one.
        fault_plan: an optional :class:`~repro.faults.plan.FaultPlan`
            replayed across the runtime's rounds by a
            :class:`~repro.faults.injector.FaultInjector` over a
            dedicated RNG stream (label ``"runtime-faults"``).
            Targeted/delegate/depth crash clauses go through
            :meth:`crash`, so detection and exclusion react exactly as
            they would to any other silent crash.  A run with an empty
            plan is bit-identical to a run with none.
        schedule: an optional :class:`~repro.net.scheduler.Schedule`
            governing *how many* gossip steps each process takes per
            round (:meth:`Schedule.fires_in_round` keyed by the dotted
            address, 1-based rounds).  ``None`` — and any
            round-synchronous schedule, e.g. the zero-jitter
            :class:`~repro.net.scheduler.RoundSchedule` — reproduces
            the engine's one-fire-per-round cadence bit for bit.
            Jittered and straggler schedules model timers drifting
            across round boundaries or running at a slower cadence;
            a process firing zero times simply keeps buffering.
    """

    def __init__(
        self,
        members: Dict[Address, Interest],
        config: Optional[PmcastConfig] = None,
        sim_config: Optional[SimConfig] = None,
        detector_timeout: int = 12,
        exclusion_quorum: Optional[int] = None,
        piggyback_membership: bool = False,
        observer: Optional[Observer] = None,
        fault_plan: Optional[FaultPlan] = None,
        schedule: Optional[Schedule] = None,
    ):
        if not members:
            raise SimulationError("cannot start an empty runtime")
        self._config = config or PmcastConfig()
        self._sim_config = sim_config or SimConfig()
        self._detector_timeout = detector_timeout
        self._exclusion_quorum = exclusion_quorum
        self._piggyback_membership = piggyback_membership
        self._schedule = schedule
        self._schedule_keys: Dict[Address, str] = {}
        self._tree = MembershipTree.build(members, self._config.redundancy)
        self._clock = 0
        self._round = 0
        self._tables: Dict[Prefix, ViewTable] = {}
        self._nodes: Dict[Address, PmcastNode] = {}
        self._replicas: Dict[Address, MembershipState] = {}
        self._detectors: Dict[Address, FailureDetector] = {}
        # Suspicion quorums, flattened (paper §6): per-suspect accuser
        # sets plus the quorum size captured when a suspect was first
        # accused.  Semantically a Dict[Address, SuspicionQuorum], but
        # the round loops touch these maps per pull and per suspicion —
        # plain dicts skip a method dispatch and an inner-dict hop on
        # every one of those operations.  An accuser-set entry is
        # dropped when its last accusation is retracted; the captured
        # quorum size persists until the suspect leaves or is excluded,
        # exactly like the per-suspect quorum objects did.
        self._accusers: Dict[Address, Set[Address]] = {}
        self._quorum_required: Dict[Address, int] = {}
        # Materialized with the first accusation — parity with the lazy
        # SuspicionQuorum construction this replaces, so registry
        # snapshots show the counters in exactly the same runs.
        self._m_accusations = None
        self._m_convictions = None
        self._excluded_at: Dict[Address, int] = {}
        self._crashed: Set[Address] = set()
        self._crashed_at: Dict[Address, int] = {}
        # Active-set scheduling: the addresses whose nodes buffer at
        # least one event.  Walked in wiring order (the _nodes insertion
        # order a full scan would use) so the shared gossip RNG is
        # consumed identically in both scheduling modes.
        self._active: Set[Address] = set()
        self._node_seq: Dict[Address, int] = {}
        self._wire_seq = 0
        # Derived-state caches, all dropped by _membership_changed():
        # the member list snapshot, per-member live-neighbor lists, and
        # per-member far-peer lists (the latter also validated against
        # the replica's structure stamp, since anti-entropy changes the
        # known peer set mid-run).
        self._membership_epoch = 0
        self._members_cache: Optional[List[Address]] = None
        self._neighbors_cache: Dict[Address, List[Address]] = {}
        self._far_cache: Dict[Address, Tuple[int, List[Address]]] = {}
        # Addresses whose replica was torn down by leave() and never
        # re-wired.  Every address a table can mention was wired once
        # (tables only describe members), so "peer has a live replica"
        # is exactly "peer not in _unwired" — and while this set is
        # empty (no leaves in flight) the far-peer pool filter is the
        # identity and the peers() list is shared outright.
        self._unwired: Set[Address] = set()
        self._obs = observer if observer is not None else NULL_OBSERVER
        self._reg = self._obs.registry
        self._m_rounds = self._reg.counter("runtime", "rounds")
        self._m_sent = self._reg.counter("runtime", "envelopes_sent")
        self._m_lost = self._reg.counter("runtime", "envelopes_lost")
        self._m_receptions = self._reg.counter("runtime", "receptions")
        self._m_deliveries = self._reg.counter("runtime", "deliveries")
        self._m_publishes = self._reg.counter("runtime", "publishes")
        self._m_joins = self._reg.counter("membership", "joins")
        self._m_leaves = self._reg.counter("membership", "leaves")
        self._m_crashes = self._reg.counter("membership", "crashes")
        self._m_exclusions = self._reg.counter("membership", "exclusions")
        self._m_pulls = self._reg.counter("membership", "pulls")
        self._m_interest_updates = self._reg.counter(
            "membership", "interest_updates"
        )
        self._m_refreshes = self._reg.counter("views", "path_refreshes")
        self._m_tables = self._reg.counter("views", "tables_refreshed")
        self._h_exclusion = self._reg.histogram(
            "detector", "exclusion_latency_rounds"
        )
        # Per-round membership-plane cost visibility: how often the
        # far-peer pools are reused vs rebuilt.  These never enter
        # benchmark digests (they are new observability, not protocol
        # behavior).
        self._m_far_hits = self._reg.counter("membership", "far_cache_hits")
        self._m_far_misses = self._reg.counter(
            "membership", "far_cache_misses"
        )
        # The membership round performs two exchanges per live member
        # per round; prefetch the gossip_pull counters once instead of
        # paying a registry lookup per exchange (same counters, same
        # counting semantics).
        self._x_counters = (
            self._reg.counter("gossip_pull", "exchanges"),
            self._reg.counter("gossip_pull", "synced_exchanges"),
            self._reg.counter("gossip_pull", "lines_updated"),
        )
        self._reg.register_collector(
            "runtime",
            lambda: {
                "active_count": len(self._active),
                "round": self._round,
                "size": self._tree.size,
            },
        )
        self._ctx = GossipContext(
            derive_rng(self._sim_config.seed, "runtime-gossip"),
            threshold_h=self._config.threshold_h,
            registry=self._reg,
        )
        self._network = LossyNetwork(
            self._sim_config.loss_probability,
            derive_rng(self._sim_config.seed, "runtime-network"),
        )
        self._membership_rng = derive_rng(
            self._sim_config.seed, "runtime-membership"
        )
        self._injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            self._injector = FaultInjector(
                fault_plan,
                self._tree,
                derive_rng(self._sim_config.seed, "runtime-faults"),
                emit=self._obs.emit if self._obs.tracing else None,
                clock_offset=1,
            )
            self._reg.register_collector("faults", self._injector.stats)
        for address in self._tree.members():
            self._wire(address)
        for address in self._tree.members():
            self._watch_neighbors(address)
        # Fetched after wiring: every detector's constructor already
        # materialized this counter, so this is a pure lookup — the
        # detection round batches suspicion reports into it per round.
        self._m_suspicion_reports = self._reg.counter(
            "detector", "suspicion_reports"
        )

    # -- inspection -------------------------------------------------------

    @property
    def round(self) -> int:
        """Rounds executed so far."""
        return self._round

    @property
    def size(self) -> int:
        """Live membership size (excluded processes removed)."""
        return self._tree.size

    @property
    def tree(self) -> MembershipTree:
        """The current membership ground truth."""
        return self._tree

    @property
    def active_count(self) -> int:
        """How many processes currently buffer an event (are *infected*).

        This is the per-round event-gossip cost under active-set
        scheduling; it is maintained in both scheduling modes.
        """
        return len(self._active)

    @property
    def observer(self) -> Observer:
        """The attached observer (the shared null observer by default)."""
        return self._obs

    @property
    def fault_stats(self) -> Optional[Dict[str, int]]:
        """Injection counters when a fault plan is attached, else None."""
        return None if self._injector is None else self._injector.stats()

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """The registry's rolled-up per-subsystem counters."""
        return self._reg.snapshot()

    def node(self, address: Address) -> PmcastNode:
        """The protocol node of a (possibly crashed) process."""
        try:
            return self._nodes[address]
        except KeyError:
            raise MembershipError(f"{address} has no node") from None

    def exclusion_round(self, address: Address) -> Optional[int]:
        """The round a crashed process was excluded, or None."""
        return self._excluded_at.get(address)

    def delivered_to(self, event: Event) -> List[Address]:
        """Which processes have delivered ``event``."""
        return sorted(
            address
            for address, node in self._nodes.items()
            if node.has_delivered(event)
        )

    # -- mutation -----------------------------------------------------------

    def publish(self, publisher: Address, event: Event) -> None:
        """PMCAST ``event``; it disseminates over subsequent rounds."""
        if publisher not in self._tree:
            raise SimulationError(f"{publisher} is not a member")
        node = self._nodes[publisher]
        if not node.alive:
            raise SimulationError(f"{publisher} has crashed")
        node.pmcast(event, self._ctx)
        if not node.is_idle:
            self._active.add(publisher)
        self._m_publishes.inc()
        if self._obs.tracing:
            self._obs.emit(
                self._round, "publish", publisher, event_id=event.event_id
            )
            if node.has_delivered(event):
                self._obs.emit(
                    self._round, "deliver", publisher,
                    event_id=event.event_id,
                )

    def crash(self, address: Address) -> None:
        """Silently crash a process (it stays in views until excluded)."""
        node = self.node(address)
        node.alive = False
        self._crashed.add(address)
        self._crashed_at[address] = self._round
        self._active.discard(address)
        self._membership_changed(address)
        self._m_crashes.inc()
        self._obs.emit(self._round, "crash", address)

    def join(self, address: Address, interest: Interest) -> None:
        """Add a process to the running group (§2.3 join, converged).

        The tree gains the member, the tables on its prefix path are
        refreshed in place at a fresh timestamp (what the contact-chain
        protocol of :func:`repro.membership.lifecycle.join` converges
        to), the newcomer is wired onto the shared tables, and it and
        its immediate neighbors start watching each other.  No other
        member is touched: they hold the very table objects that were
        just refreshed.
        """
        if address in self._tree:
            raise SimulationError(f"{address} is already a member")
        self._tree.add(address, interest)
        self._m_joins.inc()
        self._obs.emit(self._round, "join", address)
        self._refresh_path(address, cause="join")
        self._wire(address)
        self._watch_neighbors(address)
        for neighbor in self._live_neighbors(address):
            self._detectors[neighbor].watch(address, now=self._round)

    def leave(self, address: Address) -> None:
        """Gracefully remove a process from the running group."""
        if address not in self._tree:
            raise SimulationError(f"{address} is not a member")
        self._tree.remove(address)
        self._m_leaves.inc()
        self._obs.emit(self._round, "leave", address)
        self._crashed.discard(address)
        self._crashed_at.pop(address, None)
        self._nodes.pop(address, None)
        if self._replicas.pop(address, None) is not None:
            self._unwired.add(address)
        self._detectors.pop(address, None)
        self._accusers.pop(address, None)
        self._quorum_required.pop(address, None)
        self._active.discard(address)
        self._node_seq.pop(address, None)
        self._refresh_path(address, cause="leave")
        for detector in self._detectors.values():
            detector.unwatch(address)

    def update_interest(self, address: Address, interest: Interest) -> None:
        """Re-subscribe a live member (§2.3 "subscriptions and
        unsubscriptions are updates of the membership information").

        The tree records the new interest, the member's node matches
        future events against it, and the tables along its prefix path
        are refreshed in place — the regrouped subtree interests near
        the root absorb the change, exactly as a converged
        re-subscription would.  Mirrors :meth:`join`/:meth:`leave`:
        no other member is touched.
        """
        if address not in self._tree:
            raise SimulationError(f"{address} is not a member")
        node = self._nodes[address]
        if not node.alive:
            raise SimulationError(f"{address} has crashed")
        self._tree.update_interest(address, interest)
        node.update_interest(interest)
        self._m_interest_updates.inc()
        self._refresh_path(address, cause="interest-update")

    # -- the round loop -------------------------------------------------------

    def step(self) -> None:
        """Execute one round: event gossip, membership gossip, detection.

        The round structure mirrors the dissemination driver's
        (:func:`repro.variants.base.run_variant`): crash step, fan-out,
        exchange — each stage is its own method so the runtime's round
        anatomy lines up with the strategy seam, plus the membership
        stage the single-event engine does not have.
        """
        self._round += 1
        self._m_rounds.inc()
        if self._injector is not None:
            # The fault plan's round windows are 0-based like the
            # engine's: clause round r acts in the (r+1)-th step.
            schedule_round = self._round - 1
            self._injector.begin_round(schedule_round)
            for victim in self._injector.crashes_at(schedule_round):
                if victim in self._tree and victim not in self._crashed:
                    self.crash(victim)
        timeline = self._obs.timeline
        with (
            timeline.span("fan_out", "runtime", self._round)
            if timeline is not None
            else NULL_SPAN
        ):
            envelopes = self._fan_out_round()
        with (
            timeline.span("exchange", "runtime", self._round)
            if timeline is not None
            else NULL_SPAN
        ):
            self._exchange_round(envelopes)
        with (
            timeline.span("membership", "runtime", self._round)
            if timeline is not None
            else NULL_SPAN
        ):
            self._membership_round()
            self._detection_round()

    def _fires_for(self, address: Address) -> int:
        """How many gossip steps ``address`` takes this round.

        The scheduler seam: without a schedule every process fires
        exactly once per round (the hard-wired engine cadence); with
        one, :meth:`~repro.net.scheduler.Schedule.fires_in_round`
        decides — 0 models a straggler sitting the round out, 2 a
        jittered timer drifting across the boundary.
        """
        if self._schedule is None:
            return 1
        key = self._schedule_keys.get(address)
        if key is None:
            key = self._schedule_keys[address] = str(address)
        return self._schedule.fires_in_round(key, self._round)

    def _fan_out_round(self) -> List[Envelope]:
        """Collect this round's gossip envelopes from every live node.

        Only buffered nodes are visited, in their stable join order
        (so the shared gossip RNG sees the sender sequence a full scan
        would produce); idle nodes drop off the set.
        """
        envelopes: List[Envelope] = []
        for address in sorted(self._active, key=self._node_seq.__getitem__):
            node = self._nodes[address]
            if not node.alive or address not in self._tree:
                continue
            for __ in range(self._fires_for(address)):
                envelopes.extend(node.gossip_step(self._ctx))
                if node.is_idle:
                    break
            if node.is_idle:
                self._active.discard(address)
        return envelopes

    def _exchange_round(self, envelopes: List[Envelope]) -> None:
        """Transmit the round's envelopes and apply every arrival."""
        if self._injector is None:
            survivors = self._network.transmit(envelopes)
        else:
            survivors = self._injector.transmit(
                self._round - 1, envelopes, self._network
            )
        self._m_sent.inc(len(envelopes))
        # Released (delayed) envelopes can make survivors exceed this
        # round's sends; injected losses are in the "faults" collector.
        self._m_lost.inc(max(len(envelopes) - len(survivors), 0))
        if self._obs.tracing and envelopes:
            emit_dispositions(
                envelopes,
                {id(envelope) for envelope in survivors},
                self._injector.last_diverted
                if self._injector is not None
                else frozenset(),
                self._obs.emit,
                self._round,
            )
        for envelope in survivors:
            receiver = self._nodes.get(envelope.destination)
            if receiver is None or not receiver.alive:
                continue
            freshly_delivered = (
                self._obs.enabled
                and not receiver.has_delivered(envelope.message.event)
            )
            receiver.receive(envelope.message, self._ctx)
            self._m_receptions.inc()
            if self._obs.tracing:
                self._obs.emit(
                    self._round,
                    "receive",
                    envelope.destination,
                    peer=envelope.message.sender,
                    event_id=envelope.message.event.event_id,
                    depth=envelope.message.depth,
                )
            if freshly_delivered and receiver.has_delivered(
                envelope.message.event
            ):
                self._m_deliveries.inc()
                self._obs.emit(
                    self._round,
                    "deliver",
                    envelope.destination,
                    event_id=envelope.message.event.event_id,
                )
            if not receiver.is_idle:
                self._active.add(envelope.destination)
            self._record_contact(
                envelope.destination, envelope.message.sender
            )
            if self._piggyback_membership:
                sender_replica = self._replicas.get(envelope.message.sender)
                receiver_replica = self._replicas.get(envelope.destination)
                if sender_replica is not None and receiver_replica is not None:
                    exchange(receiver_replica, sender_replica, self._reg)

    def run(self, rounds: int) -> None:
        """Execute several rounds."""
        for __ in range(rounds):
            self.step()

    def run_until_idle(self, max_rounds: int = 256) -> int:
        """Step until no event is buffered anywhere; returns rounds run.

        A fault plan holding delayed envelopes keeps the run alive:
        the group is not idle while a release is still due.
        """
        for executed in range(max_rounds):
            pending = (
                self._injector is not None and self._injector.has_pending
            )
            if not pending and not self._active:
                return executed
            self.step()
        return max_rounds

    # -- internals ---------------------------------------------------------

    def _wire(self, address: Address) -> None:
        """(Re)build node, replica and detector state for a member."""
        views = {}
        for prefix in address.prefixes():
            if prefix not in self._tables:
                self._tables[prefix] = build_view(
                    self._tree, prefix, self._clock
                )
            views[prefix.depth] = self._tables[prefix]
        existing = self._nodes.get(address)
        if existing is None:
            self._node_seq[address] = self._wire_seq
            self._wire_seq += 1
            self._nodes[address] = PmcastNode(
                address,
                self._tree.interest_of(address),
                views,
                self._config,
            )
        else:
            for depth, table in views.items():
                existing.replace_view(depth, table)
        if address not in self._replicas:
            # The replica holds private clones: staleness is
            # per-process.  The shared path tables carry exactly the
            # rows a fresh per-process build would produce (they were
            # built or refreshed at the current clock), so cloning them
            # replaces the per-member O(n) view derivation.
            self._replicas[address] = MembershipState(
                address,
                {depth: table.clone() for depth, table in views.items()},
            )
            self._unwired.discard(address)
        if address not in self._detectors:
            # near_key: the leaf-subgroup component prefix — §2.3 only
            # lets immediate neighbors feed exclusions, so the detector
            # maintains that slice of its suspect list incrementally.
            self._detectors[address] = FailureDetector(
                address,
                self._detector_timeout,
                registry=self._reg,
                near_key=component_key(address)[: self._tree.depth - 1],
            )

    def _watch_neighbors(self, address: Address) -> None:
        detector = self._detectors[address]
        prefix = address.prefix(self._tree.depth)
        for neighbor in self._tree.subtree_members(prefix):
            if neighbor != address:
                detector.watch(neighbor, now=self._round)

    def _record_contact(self, owner: Address, sender: Address) -> None:
        detector = self._detectors.get(owner)
        if detector is not None:
            detector.record_contact(sender, now=self._round)
            accusers = self._accusers.get(sender)
            if accusers is not None:
                accusers.discard(owner)
                if not accusers:
                    del self._accusers[sender]

    def _membership_changed(self, address: Optional[Address] = None) -> None:
        """Drop every cache derived from membership or liveness.

        ``address``, when given, is the member whose join, leave, crash
        or exclusion caused the change.  A liveness-neighbor list only
        depends on its leaf subgroup, so only the changed member's
        subgroup entries are invalidated — rebuilding all n lists after
        every crash used to be a visible slice of paper-scale runs.
        ``None`` drops the whole cache.
        """
        self._membership_epoch += 1
        self._members_cache = None
        neighbors_cache = self._neighbors_cache
        if address is None:
            neighbors_cache.clear()
        elif neighbors_cache:
            neighbors_cache.pop(address, None)
            for member in self._tree.subtree_members(
                address.prefix(self._tree.depth)
            ):
                neighbors_cache.pop(member, None)
        # Cleared rather than epoch-keyed: the far-peer entries can
        # then validate against a single int stamp in the round loop.
        # (Always wholesale: the pools filter on global liveness, not
        # on the subgroup.)
        self._far_cache.clear()

    def _members(self) -> List[Address]:
        """The member list, cached between membership changes.

        Callers iterating it while excluding members (detection) keep a
        reference to the old list — the same snapshot semantics as the
        per-round ``list(...)`` copy this replaces; the cache slot is
        *replaced*, never mutated in place.
        """
        if self._members_cache is None:
            self._members_cache = list(self._tree.members())
        return self._members_cache

    def _live_neighbors(self, address: Address) -> List[Address]:
        cached = self._neighbors_cache.get(address)
        if cached is None:
            prefix = address.prefix(self._tree.depth)
            cached = [
                neighbor
                for neighbor in self._tree.subtree_members(prefix)
                if neighbor != address and neighbor not in self._crashed
            ]
            self._neighbors_cache[address] = cached
        return cached

    def _membership_round(self) -> None:
        """Dedicated membership gossips: one near pull, one far pull.

        This is the simulator's hottest loop at paper scale, and it is
        written accordingly:

        * rng.choice(seq) is exactly ``seq[rng._randbelow(len(seq))]``
          (CPython's implementation); drawing through ``_randbelow``
          keeps the RNG stream bit-identical while skipping a Python
          frame per draw.
        * The synced-exchange fast path of
          :func:`~repro.membership.gossip_pull.exchange` is inlined:
          the content stamps feed the sync-group check here, and only a
          miss pays the :func:`~repro.membership.gossip_pull._pull`
          call.  The gossiper's stamp is computed once per member and
          reused for the far pull unless the near pull installed rows.
        * The far-peer pool lookup is inlined and validated against the
          replica's structure-only stamp (timestamp churn never rebuilds
          it); ``_membership_changed`` clears the cache wholesale.
        * Counters accumulate in local ints, flushed once per round —
          identical totals, no per-pull ``inc`` dispatch.
        * Each pull is a bidirectional contact (the peer answered); the
          contact recording and accusation retractions are inlined from
          ``_record_contact``, and the body is duplicated for the near
          and far draw instead of looping over a candidates list.
        """
        randbelow = self._membership_rng._randbelow
        replicas = self._replicas
        crashed = self._crashed
        unwired = self._unwired
        tracing = self._obs.tracing
        detectors = self._detectors
        detectors_get = detectors.get
        accusers_map = self._accusers
        accusers_get = accusers_map.get
        far_cache = self._far_cache
        far_cache_get = far_cache.get
        neighbors_get = self._neighbors_cache.get
        now = self._round
        n_pulls = n_exchanges = n_synced = n_lines = 0
        n_far_hits = n_far_misses = 0
        for address in self._members():
            if address in crashed:
                continue
            replica = replicas[address]
            near = neighbors_get(address)
            if near is None:
                near = self._live_neighbors(address)
            peer_near = near[randbelow(len(near))] if near else None
            # Far-peer pool: live peers from the replica's own tables.
            structure = replica._struct_hint
            if structure is None:
                structure = sum(map(_ADDR_TOKENS, replica._seq))
                replica._struct_hint = structure
            entry = far_cache_get(address)
            if entry is not None and entry[0] == structure:
                far = entry[1]
                n_far_hits += 1
            else:
                # "peer has a replica" == "peer not in _unwired" (see
                # __init__); with no leave in flight and nobody crashed
                # the filter is the identity and the peers() list is
                # shared outright — it is replaced, never mutated, on
                # change, and this entry is dropped with it.
                peers = replica.peers()
                if crashed:
                    if unwired:
                        far = [
                            peer
                            for peer in peers
                            if peer not in unwired and peer not in crashed
                        ]
                    else:
                        far = [
                            peer for peer in peers if peer not in crashed
                        ]
                elif unwired:
                    far = [peer for peer in peers if peer not in unwired]
                else:
                    far = peers
                far_cache[address] = (structure, far)
                n_far_misses += 1
            peer_far = far[randbelow(len(far))] if far else None
            if peer_near is None and peer_far is None:
                continue
            detector = detectors_get(address)
            g_stamp = replica._stamp_hint
            if g_stamp is None:
                g_stamp = sum(map(_CACHE_TOKENS, replica._seq))
                replica._stamp_hint = g_stamp
            if peer_near is not None:
                peer = peer_near
                n_pulls += 1
                n_exchanges += 1
                peer_state = replicas[peer]
                p_stamp = peer_state._stamp_hint
                if p_stamp is None:
                    p_stamp = sum(map(_CACHE_TOKENS, peer_state._seq))
                    peer_state._stamp_hint = p_stamp
                g_sync = replica._sync_group
                p_sync = peer_state._sync_group
                if (
                    g_sync is not None
                    and p_sync is not None
                    and g_sync[1] == g_stamp
                    and p_sync[1] == p_stamp
                    and (
                        g_sync[0] == p_sync[0]
                        or _find_group(g_sync[0]) == _find_group(p_sync[0])
                    )
                ):
                    updated = 0
                    n_synced += 1
                else:
                    updated = _pull(replica, peer_state, g_stamp, p_stamp)
                    if updated < 0:
                        updated = 0
                        n_synced += 1
                    elif updated:
                        n_lines += updated
                        # The pull installed rows: the cached gossiper
                        # stamp is stale for the far pull below.
                        g_stamp = sum(map(_CACHE_TOKENS, replica._seq))
                        replica._stamp_hint = g_stamp
                if tracing:
                    self._obs.emit(
                        self._round, "pull", address, peer=peer,
                        value=updated,
                    )
                if detector is not None:
                    detector.record_contact(peer, now)
                peer_detector = detectors_get(peer)
                if peer_detector is not None:
                    peer_detector.record_contact(address, now)
                if accusers_map:
                    # Retractions only matter while accusations are
                    # outstanding — the map is empty in steady state,
                    # and one truthiness check replaces two lookups.
                    if detector is not None:
                        accusers = accusers_get(peer)
                        if accusers is not None:
                            accusers.discard(address)
                            if not accusers:
                                del accusers_map[peer]
                    if peer_detector is not None:
                        accusers = accusers_get(address)
                        if accusers is not None:
                            accusers.discard(peer)
                            if not accusers:
                                del accusers_map[address]
            if peer_far is not None:
                peer = peer_far
                n_pulls += 1
                n_exchanges += 1
                peer_state = replicas[peer]
                p_stamp = peer_state._stamp_hint
                if p_stamp is None:
                    p_stamp = sum(map(_CACHE_TOKENS, peer_state._seq))
                    peer_state._stamp_hint = p_stamp
                g_sync = replica._sync_group
                p_sync = peer_state._sync_group
                if (
                    g_sync is not None
                    and p_sync is not None
                    and g_sync[1] == g_stamp
                    and p_sync[1] == p_stamp
                    and (
                        g_sync[0] == p_sync[0]
                        or _find_group(g_sync[0]) == _find_group(p_sync[0])
                    )
                ):
                    updated = 0
                    n_synced += 1
                else:
                    updated = _pull(replica, peer_state, g_stamp, p_stamp)
                    if updated < 0:
                        updated = 0
                        n_synced += 1
                    elif updated:
                        n_lines += updated
                if tracing:
                    self._obs.emit(
                        self._round, "pull", address, peer=peer,
                        value=updated,
                    )
                if detector is not None:
                    detector.record_contact(peer, now)
                peer_detector = detectors_get(peer)
                if peer_detector is not None:
                    peer_detector.record_contact(address, now)
                if accusers_map:
                    # Retractions only matter while accusations are
                    # outstanding — the map is empty in steady state,
                    # and one truthiness check replaces two lookups.
                    if detector is not None:
                        accusers = accusers_get(peer)
                        if accusers is not None:
                            accusers.discard(address)
                            if not accusers:
                                del accusers_map[peer]
                    if peer_detector is not None:
                        accusers = accusers_get(address)
                        if accusers is not None:
                            accusers.discard(peer)
                            if not accusers:
                                del accusers_map[address]
        if n_pulls:
            self._m_pulls.inc(n_pulls)
        counters = self._x_counters
        if n_exchanges:
            counters[0].inc(n_exchanges)
        if n_synced:
            counters[1].inc(n_synced)
        if n_lines:
            counters[2].inc(n_lines)
        if n_far_hits:
            self._m_far_hits.inc(n_far_hits)
        if n_far_misses:
            self._m_far_misses.inc(n_far_misses)

    def _detection_round(self) -> None:
        """Collect suspicions; exclude once the quorum concurs.

        Only *immediate neighbors* accuse (§2.3 monitors "its most
        immediate neighbor processes"): a detector may hold stale
        last-contact entries for distant peers it merely gossiped with
        once, and those must not feed exclusions.  Each detector
        maintains the same-subgroup slice of its suspect list
        incrementally (``near_key``), so no per-round filtering happens
        here at all — far peers that went permanently silent dominate
        the raw suspect list and refiltering them every round used to
        dominate the whole round loop.
        """
        tracing = self._obs.tracing
        detectors = self._detectors
        accusers_map = self._accusers
        accusers_get = accusers_map.get
        required_map = self._quorum_required
        crashed = self._crashed
        now = self._round
        # tree.__contains__ is a Python-level frame; the accusation
        # loop runs it for every (monitor, suspect) pair per round.
        in_tree = self._tree._interests.__contains__
        n_accusations = n_convictions = 0
        n_reports = 0
        target = now - self._detector_timeout
        for address in self._members():
            if address in crashed:
                continue
            detector = detectors[address]
            # Inlined fast path of _near_suspects_core: the round clock
            # is monotone, so the frontier only ever moves forward and
            # almost never has a bucket to promote.  Anything else
            # (fresh detector, backward ad-hoc query) delegates.
            frontier = detector._frontier
            if frontier is not None and target > frontier:
                heap = detector._heap
                if heap and heap[0] < target:
                    detector._advance(target)
                else:
                    detector._frontier = target
                filtered = detector._near_sorted
                n_reports += detector._suspect_count
            else:
                filtered, reportable = detector._near_suspects_core(now)
                n_reports += reportable
            for suspect in filtered:
                if not in_tree(suspect):
                    continue
                accusers = accusers_get(suspect)
                if accusers is None:
                    accusers = accusers_map[suspect] = set()
                    if suspect not in required_map:
                        required_map[suspect] = self._exclusion_quorum or max(
                            len(self._live_neighbors(suspect)), 1
                        )
                    if self._m_accusations is None:
                        self._m_accusations = self._reg.counter(
                            "detector", "accusations"
                        )
                        self._m_convictions = self._reg.counter(
                            "detector", "convictions"
                        )
                if address not in accusers:
                    accusers.add(address)
                    n_accusations += 1
                convicted = len(accusers) >= required_map[suspect]
                if convicted:
                    n_convictions += 1
                if tracing:
                    self._obs.emit(
                        self._round, "suspect", address, peer=suspect,
                        value=len(accusers),
                    )
                if convicted:
                    self._exclude(suspect)
                    break
        if n_reports:
            self._m_suspicion_reports.inc(n_reports)
        if n_accusations:
            self._m_accusations.inc(n_accusations)
        if n_convictions:
            self._m_convictions.inc(n_convictions)

    def _refresh_path(self, address: Address, cause: str) -> None:
        """Refresh the tables on a changed prefix path, in place.

        Every table on the path is brought to the content a full
        rebuild at the new clock would produce, but through
        :meth:`~repro.membership.views.ViewTable.replace_rows` — object
        identity is preserved, so no other member needs re-wiring, and
        the advancing cache token invalidates exactly these tables'
        match-cache entries.  Only rows describing the changed member's
        subtrees are recomputed; sibling rows are restamped.  A prefix
        newly populated by a join gets a fresh table wired into the
        (new) subtree members; one emptied by a removal is dropped.

        ``cause`` ("join" / "leave" / "crash" / "interest-update") is
        recorded in the match cache's invalidation-cause breakdown so
        churn-driven hit-rate collapses are attributable.
        """
        self._ctx.note_invalidation(cause)
        self._clock += 1
        self._membership_changed(address)
        touched = 0
        components = address.components
        for prefix in address.prefixes():
            existing = self._tables.get(prefix)
            touched += 1
            if self._tree.is_populated(prefix):
                changed_child = components[len(prefix.components)]
                if existing is None:
                    fresh = build_view(self._tree, prefix, self._clock)
                    self._tables[prefix] = fresh
                    for member in self._tree.subtree_members(prefix):
                        node = self._nodes.get(member)
                        if node is not None:
                            node.replace_view(prefix.depth, fresh)
                else:
                    existing.replace_rows(
                        refreshed_rows(
                            self._tree,
                            prefix,
                            existing,
                            changed_child,
                            self._clock,
                        )
                    )
            elif existing is not None:
                del self._tables[prefix]
                self._ctx.invalidate_table(existing)
        self._m_refreshes.inc()
        self._m_tables.inc(touched)
        if self._obs.tracing:
            self._obs.emit(
                self._round, "refresh", address, value=touched
            )

    def _exclude(self, address: Address) -> None:
        """Remove a convicted process; refresh its prefix path."""
        if address not in self._tree:
            return
        self._tree.remove(address)
        self._excluded_at[address] = self._round
        self._accusers.pop(address, None)
        self._quorum_required.pop(address, None)
        self._m_exclusions.inc()
        crashed_at = self._crashed_at.get(address)
        if crashed_at is not None:
            self._h_exclusion.observe(self._round - crashed_at)
        if self._obs.tracing:
            self._obs.emit(self._round, "exclude", address)
        self._refresh_path(address, cause="crash")
        for detector in self._detectors.values():
            detector.unwatch(address)
