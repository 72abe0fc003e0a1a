"""The scheduler seam: fire-time laws and the GroupRuntime hook."""

import pytest

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.errors import NetError
from repro.interests.events import Event
from repro.net.scheduler import (
    JitteredSchedule,
    RoundSchedule,
    StragglerSchedule,
)
from repro.sim.rng import derive_rng
from repro.sim.runtime import GroupRuntime
from repro.sim.workload import bernoulli_interests

KEYS = [f"0.{i}.{j}" for i in range(4) for j in range(4)]


class TestRoundSchedule:
    def test_fires_exactly_on_boundaries(self):
        schedule = RoundSchedule(period_us=100)
        assert [schedule.fire_time_us("0.1", k) for k in (1, 2, 5)] == [
            100, 200, 500,
        ]

    def test_is_round_synchronous(self):
        assert RoundSchedule().round_synchronous

    def test_one_fire_per_round(self):
        schedule = RoundSchedule(period_us=100)
        for key in KEYS:
            assert all(
                schedule.fires_in_round(key, r) == 1 for r in range(1, 20)
            )

    def test_next_fire_is_strictly_after(self):
        schedule = RoundSchedule(period_us=100)
        assert schedule.next_fire("0.1", 0) == (1, 100)
        # At a fire instant, the *next* fire is the following one.
        assert schedule.next_fire("0.1", 100) == (2, 200)
        assert schedule.next_fire("0.1", 150) == (2, 200)

    def test_guards(self):
        with pytest.raises(NetError):
            RoundSchedule(period_us=0)
        with pytest.raises(NetError):
            RoundSchedule().fire_time_us("0.1", 0)
        with pytest.raises(NetError):
            RoundSchedule().fires_in_round("0.1", 0)


class TestJitteredSchedule:
    def test_zero_jitter_degenerates_to_round_schedule(self):
        jittered = JitteredSchedule(jitter=0.0, seed=9, period_us=100)
        plain = RoundSchedule(period_us=100)
        assert jittered.round_synchronous
        for key in KEYS:
            for k in range(1, 10):
                assert jittered.fire_time_us(key, k) == plain.fire_time_us(
                    key, k
                )

    def test_offsets_bounded_and_deterministic(self):
        schedule = JitteredSchedule(jitter=0.5, seed=3, period_us=1000)
        again = JitteredSchedule(jitter=0.5, seed=3, period_us=1000)
        assert not schedule.round_synchronous
        saw_nonzero = False
        for key in KEYS:
            for k in range(1, 10):
                offset = schedule.offset_us(key, k)
                assert 0 <= offset <= schedule.max_offset_us
                assert offset == again.offset_us(key, k)
                saw_nonzero = saw_nonzero or offset > 0
        assert saw_nonzero

    def test_seed_changes_jitter(self):
        a = JitteredSchedule(jitter=0.5, seed=1, period_us=1000)
        b = JitteredSchedule(jitter=0.5, seed=2, period_us=1000)
        assert any(
            a.offset_us(key, k) != b.offset_us(key, k)
            for key in KEYS
            for k in range(1, 10)
        )

    def test_fires_conserved_across_rounds(self):
        # Every fire lands in exactly one round: summing fires_in_round
        # over a horizon past the jitter bound counts each index once.
        schedule = JitteredSchedule(jitter=1.5, seed=3, period_us=100)
        for key in KEYS[:4]:
            total = sum(
                schedule.fires_in_round(key, r) for r in range(1, 101)
            )
            # Fires 1..~98 land inside rounds 1..100 (late ones spill
            # past round 100; nothing lands twice, nothing is created).
            assert 95 <= total <= 100

    def test_rejects_negative_jitter(self):
        for jitter in (-0.1, float("nan"), float("inf")):
            with pytest.raises(NetError):
                JitteredSchedule(jitter=jitter)


class TestStragglerSchedule:
    def test_membership_is_deterministic(self):
        a = StragglerSchedule(fraction=0.4, factor=3, seed=7)
        b = StragglerSchedule(fraction=0.4, factor=3, seed=7)
        assert [a.is_straggler(key) for key in KEYS] == [
            b.is_straggler(key) for key in KEYS
        ]
        assert any(a.is_straggler(key) for key in KEYS)
        assert not all(a.is_straggler(key) for key in KEYS)

    def test_straggler_fires_every_factor_rounds(self):
        schedule = StragglerSchedule(fraction=1.0, factor=3, seed=0)
        fires = [schedule.fires_in_round("0.1", r) for r in range(1, 10)]
        assert fires == [0, 0, 1, 0, 0, 1, 0, 0, 1]

    def test_degenerate_forms_are_round_synchronous(self):
        assert StragglerSchedule(fraction=0.0, factor=4).round_synchronous
        assert StragglerSchedule(fraction=0.5, factor=1).round_synchronous
        assert not StragglerSchedule(fraction=0.5, factor=2).round_synchronous

    def test_guards(self):
        with pytest.raises(NetError):
            StragglerSchedule(fraction=1.5)
        with pytest.raises(NetError):
            StragglerSchedule(fraction=0.5, factor=0)


def _build_runtime(schedule):
    space = AddressSpace.regular(4, 3)
    addresses = space.enumerate_regular(4)
    members = bernoulli_interests(
        addresses, 0.3, derive_rng(11, "golden-int")
    )
    runtime = GroupRuntime(
        members,
        config=PmcastConfig(fanout=2, redundancy=2),
        sim_config=SimConfig(seed=11, loss_probability=0.05),
        schedule=schedule,
    )
    return runtime, addresses


def _run_outcome(schedule):
    runtime, addresses = _build_runtime(schedule)
    event = Event({"golden": 1}, event_id=42)
    runtime.publish(addresses[0], event)
    rounds = runtime.run_until_idle()
    return (
        rounds,
        sorted(
            str(a) for a in addresses
            if runtime.node(a).has_delivered(event)
        ),
        sorted(
            str(a) for a in addresses
            if runtime.node(a).has_received(event)
        ),
        sum(runtime.node(a).messages_sent for a in addresses),
    )


class TestGroupRuntimeSeam:
    def test_no_schedule_equals_round_schedule(self):
        # The seam's default path and the explicit zero-jitter schedule
        # are the same execution, bit for bit.
        assert _run_outcome(None) == _run_outcome(
            RoundSchedule(period_us=100_000)
        )

    def test_zero_jitter_equals_round_schedule(self):
        assert _run_outcome(JitteredSchedule(jitter=0.0, seed=5)) == (
            _run_outcome(None)
        )

    def test_straggler_schedule_still_disseminates(self):
        base = _run_outcome(None)
        slow = _run_outcome(StragglerSchedule(fraction=0.3, factor=2, seed=5))
        # Stragglers stretch the run but the protocol still delivers.
        assert slow[0] >= base[0]
        assert len(slow[2]) >= len(base[2]) - 3

    def test_straggler_runs_are_reproducible(self):
        schedule = StragglerSchedule(fraction=0.3, factor=2, seed=5)
        assert _run_outcome(schedule) == _run_outcome(schedule)
