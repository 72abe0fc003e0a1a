"""Tests for the live GroupRuntime: gossip + membership + detection."""

import pytest

from repro.addressing import Address, AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import SimulationError
from repro.interests import Event, StaticInterest, parse_subscription
from repro.sim.runtime import GroupRuntime

CONFIG = PmcastConfig(fanout=2, redundancy=2, min_rounds_per_depth=2)


def make_runtime(arity=3, depth=2, timeout=6, **kwargs):
    space = AddressSpace.regular(arity, depth)
    members = {
        address: StaticInterest(True)
        for address in space.enumerate_regular(arity)
    }
    return GroupRuntime(
        members,
        config=CONFIG,
        sim_config=SimConfig(seed=13),
        detector_timeout=timeout,
        **kwargs,
    ), sorted(members)


class TestPublishing:
    def test_publish_disseminates_over_rounds(self):
        runtime, addresses = make_runtime()
        event = Event({}, event_id=1)
        runtime.publish(addresses[0], event)
        runtime.run_until_idle()
        assert len(runtime.delivered_to(event)) == len(addresses)

    def test_multiple_concurrent_events(self):
        runtime, addresses = make_runtime()
        events = [Event({}, event_id=10 + i) for i in range(3)]
        for index, event in enumerate(events):
            runtime.publish(addresses[index], event)
        runtime.run_until_idle()
        for event in events:
            assert len(runtime.delivered_to(event)) == len(addresses)

    def test_unknown_publisher_rejected(self):
        runtime, __ = make_runtime()
        with pytest.raises(SimulationError):
            runtime.publish(Address((9, 9)), Event({}))

    def test_crashed_publisher_rejected(self):
        runtime, addresses = make_runtime()
        runtime.crash(addresses[0])
        with pytest.raises(SimulationError):
            runtime.publish(addresses[0], Event({}))


class TestFailureDetection:
    def test_silent_crash_is_detected_and_excluded(self):
        runtime, addresses = make_runtime(timeout=5)
        victim = addresses[4]          # 1.1: an inner member
        runtime.crash(victim)
        runtime.run(40)
        assert victim not in runtime.tree
        excluded = runtime.exclusion_round(victim)
        assert excluded is not None
        # Detection cannot beat the timeout itself.
        assert excluded > 5

    def test_no_false_exclusions_without_crash(self):
        runtime, addresses = make_runtime(timeout=8)
        runtime.run(60)
        assert runtime.size == len(addresses)

    def test_crashed_delegate_excluded_and_replaced(self):
        runtime, addresses = make_runtime(timeout=5)
        victim = addresses[0]          # 0.0: delegate everywhere
        runtime.crash(victim)
        runtime.run(50)
        assert victim not in runtime.tree
        # The root view row for subtree 0 now leads with 0.1.
        # (Tables were refreshed on exclusion.)
        node = runtime.node(addresses[1])
        root_row = node.view(1).row(0)
        assert victim not in root_row.delegates

    def test_dissemination_heals_after_exclusion(self):
        runtime, addresses = make_runtime(timeout=5)
        victim = addresses[0]
        runtime.crash(victim)
        runtime.run(50)
        assert victim not in runtime.tree
        event = Event({}, event_id=99)
        publisher = addresses[-1]
        runtime.publish(publisher, event)
        runtime.run_until_idle()
        survivors = [a for a in addresses if a != victim]
        assert runtime.delivered_to(event) == survivors

    def test_explicit_quorum(self):
        runtime, addresses = make_runtime(timeout=5, exclusion_quorum=1)
        victim = addresses[4]
        runtime.crash(victim)
        runtime.run(30)
        assert victim not in runtime.tree


class TestMembershipGossip:
    def test_replicas_receive_contacts(self):
        runtime, addresses = make_runtime()
        runtime.run(5)
        # Every live process has heard from someone by now.
        for address in addresses:
            node = runtime.node(address)
            assert node.alive

    def test_runtime_round_counter(self):
        runtime, __ = make_runtime()
        runtime.run(7)
        assert runtime.round == 7

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            GroupRuntime({})


class TestContentBasedRuntime:
    def test_selective_delivery_in_runtime(self):
        space = AddressSpace.regular(3, 2)
        members = {}
        for index, address in enumerate(space.enumerate_regular(3)):
            text = "topic >= 5" if index % 2 == 0 else "topic >= 1"
            members[address] = parse_subscription(text)
        runtime = GroupRuntime(
            members, config=CONFIG, sim_config=SimConfig(seed=3)
        )
        event = Event({"topic": 2}, event_id=55)
        publisher = sorted(members)[0]
        runtime.publish(publisher, event)
        runtime.run_until_idle()
        delivered = runtime.delivered_to(event)
        for address in delivered:
            assert members[address].matches(event)
        interested = [
            address
            for address, interest in members.items()
            if interest.matches(event)
        ]
        assert len(delivered) == len(interested)


class TestPiggybackMembership:
    def test_piggyback_converges_faster_along_event_paths(self):
        """§2.3: membership info piggybacked on event gossip spreads it."""

        def staleness(runtime, addresses):
            """Total timestamp lag of all replicas vs the freshest line."""
            lag = 0
            for address in addresses:
                replica = runtime._replicas[address]
                for table in replica.tables.values():
                    for row in table.rows():
                        lag += row.timestamp
            return lag

        results = {}
        for piggyback in (False, True):
            runtime, addresses = make_runtime(arity=3, depth=2)
            runtime._piggyback_membership = piggyback
            # Make one process's leaf line fresher; others are stale.
            source = runtime._replicas[addresses[0]]
            bumped = source.tables[2].rows()[0].with_timestamp(50)
            source.tables[2].upsert(bumped)
            event = Event({}, event_id=777)
            runtime.publish(addresses[0], event)
            runtime.run(4)
            results[piggyback] = staleness(runtime, addresses)
        # Piggybacking can only accelerate propagation of fresh lines.
        assert results[True] >= results[False]

    def test_piggyback_disabled_by_default(self):
        runtime, __ = make_runtime()
        assert not runtime._piggyback_membership


class TestActiveSetScheduling:
    def test_active_count_tracks_infection(self):
        runtime, addresses = make_runtime()
        assert runtime.active_count == 0
        runtime.publish(addresses[0], Event({}, event_id=5))
        assert runtime.active_count == 1
        runtime.run(2)
        assert runtime.active_count > 1
        runtime.run_until_idle()
        assert runtime.active_count == 0

    def test_crash_and_leave_deactivate(self):
        runtime, addresses = make_runtime()
        runtime.publish(addresses[0], Event({}, event_id=6))
        runtime.run(1)
        infected = runtime.active_count
        assert infected >= 1
        runtime.crash(addresses[0])
        assert runtime.active_count == infected - 1


class TestCacheCorrectnessUnderChurn:
    def test_join_leave_rejoin_serves_no_stale_matches(self):
        """Recycled table state must not leak old match verdicts.

        The same address joins, leaves and joins again with the
        *opposite* interest.  Every refresh mutates path tables in
        place (same object identity — the worst case for an
        identity-keyed cache), so a stale cached match would misroute
        or misdeliver the event published after each flip.
        """
        runtime, addresses = make_runtime(arity=3, depth=2)
        churner = Address((2, 9))
        publisher = addresses[0]

        runtime.join(churner, StaticInterest(True))
        event_1 = Event({}, event_id=301)
        runtime.publish(publisher, event_1)
        runtime.run_until_idle()
        assert churner in runtime.delivered_to(event_1)

        runtime.leave(churner)
        runtime.join(churner, StaticInterest(False))
        event_2 = Event({}, event_id=302)
        runtime.publish(publisher, event_2)
        runtime.run_until_idle()
        assert churner not in runtime.delivered_to(event_2)

        runtime.leave(churner)
        runtime.join(churner, StaticInterest(True))
        event_3 = Event({}, event_id=303)
        runtime.publish(publisher, event_3)
        runtime.run_until_idle()
        assert churner in runtime.delivered_to(event_3)

    def test_runtime_cache_stats_exposed(self):
        runtime, addresses = make_runtime()
        runtime.publish(addresses[0], Event({}, event_id=9))
        runtime.run_until_idle()
        stats = runtime._ctx.cache_stats
        assert stats.table_hits + stats.table_misses > 0
        assert 0.0 <= stats.table_hit_rate <= 1.0
