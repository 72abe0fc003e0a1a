"""The struct-of-arrays fast path: bit-identity and invariants.

Two kernels live in :mod:`repro.sim.vector`:

* the **compat kernel** (``try_run_vectorized``) replays the scalar
  engine's RNG draws position-for-position.  ``run_dissemination``
  takes it for every eligible run, so its result must be
  *bit-identical* to the scalar reference reached through the strategy
  seam (:func:`tests.sim.reference.scalar_dissemination`) — same
  report, same per-node outcome, same trace.  The suite sweeps every
  ``PmcastConfig`` switch (loss, crashes, §5.3 tuning, §6 leaf flood,
  §3.2 shortcut, loss-aware bounds, Pittel's ``c``) and checks all
  three.
* the **regular-tree kernel** (``RegularTreeSpec``/``run_shard_wave``)
  has its own per-``(shard, round)`` seed contract; its transition
  invariants are property-tested here (the statistical validation
  lives in the conformance harness's ``scale`` suite).
"""

import os
import random
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.faults import FaultPlan
from repro.interests.events import Event
from repro.net import run_sim_dissemination
from repro.net.scheduler import (
    JitteredSchedule,
    RoundSchedule,
    StragglerSchedule,
)
from repro.sim import (
    PmcastGroup,
    RegularTreeSpec,
    ShardState,
    VectorUnsupported,
    bernoulli_interests,
    derive_rng,
    run_dissemination,
    run_shard_wave,
)
from repro.sim.vector import sample_positions
from tests.sim.reference import (
    scalar_dissemination,
    scalar_sim_dissemination,
)


class TestSamplePositions:
    """The CPython ``random.sample`` mirror, position for position."""

    @pytest.mark.parametrize(
        "n,k",
        [
            (1, 1), (5, 1), (5, 5), (10, 3),          # pool branch
            (100, 2), (1000, 3), (10648, 6),          # selection-set branch
            (50, 20), (64, 8),
        ],
    )
    def test_matches_random_sample(self, n, k):
        for seed in range(5):
            expected = random.Random(seed).sample(range(n), k)
            mirrored = sample_positions(
                random.Random(seed)._randbelow, n, k
            )
            assert mirrored == expected


def _build_group(config, seed=11, arity=4, depth=3):
    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.3, derive_rng(seed, "vector-int")
    )
    return PmcastGroup.build(members, config), addresses


def _run_pair(config, sim_kwargs, seed=11, arity=4, depth=3, faults=None):
    """The same dissemination, scalar reference then engine, on fresh
    groups."""
    event = Event({"golden": 1}, event_id=42)
    outcomes = []
    for run in (scalar_dissemination, run_dissemination):
        group, addresses = _build_group(config, seed, arity, depth)
        report = run(
            group,
            addresses[0],
            event,
            SimConfig(seed=seed, **sim_kwargs),
            faults=faults,
        )
        nodes = {
            str(a): (
                group.node(a).alive,
                group.node(a).has_received(event),
                group.node(a).has_delivered(event),
                group.node(a).messages_sent,
                group.node(a).receptions,
            )
            for a in addresses
        }
        outcomes.append((report, nodes))
    return outcomes


MATRIX = [
    ("plain", PmcastConfig(fanout=2, redundancy=2), {}),
    ("lossy", PmcastConfig(fanout=2, redundancy=2),
     {"loss_probability": 0.1}),
    ("crashy", PmcastConfig(fanout=2, redundancy=2),
     {"crash_fraction": 0.05}),
    ("lossy_crashy", PmcastConfig(fanout=3, redundancy=3),
     {"loss_probability": 0.05, "crash_fraction": 0.03}),
    ("tuned_h", PmcastConfig(fanout=2, redundancy=2, threshold_h=2),
     {"loss_probability": 0.05}),
    ("leaf_flood", PmcastConfig(fanout=2, redundancy=2,
                                leaf_flood_threshold=0.2), {}),
    ("shortcut", PmcastConfig(fanout=2, redundancy=2,
                              local_interest_shortcut=True), {}),
    ("min_rounds", PmcastConfig(fanout=3, redundancy=3,
                                min_rounds_per_depth=2),
     {"loss_probability": 0.1, "crash_fraction": 0.02}),
    ("loss_aware", PmcastConfig(fanout=2, redundancy=2,
                                loss_aware_rounds=True, assumed_loss=0.1,
                                assumed_crash=0.05),
     {"loss_probability": 0.1}),
    ("pittel_c", PmcastConfig(fanout=2, redundancy=2, pittel_c=1.5), {}),
]


class TestCompatBitIdentity:
    @pytest.mark.parametrize(
        "config,sim_kwargs", [m[1:] for m in MATRIX],
        ids=[m[0] for m in MATRIX],
    )
    def test_report_and_node_state_identical(self, config, sim_kwargs):
        (scalar_report, scalar_nodes), (vector_report, vector_nodes) = (
            _run_pair(config, sim_kwargs)
        )
        assert vector_report == scalar_report
        assert vector_nodes == scalar_nodes

    def test_multiple_seeds(self):
        config = PmcastConfig(fanout=2, redundancy=2)
        for seed in range(3):
            scalar, vector = _run_pair(
                config, {"loss_probability": 0.05}, seed=seed
            )
            assert vector[0] == scalar[0]

    @pytest.mark.slow
    def test_paper_scale_identical(self):
        config = PmcastConfig(fanout=3, redundancy=3)
        scalar, vector = _run_pair(config, {}, arity=22, depth=3)
        assert vector[0] == scalar[0]

    def test_faulted_run_falls_back_and_stays_equal(self):
        # A fault plan disables the fast path (the injector owns the
        # transmit step); the engine must still reproduce the scalar
        # faulted run exactly because the dispatch declines before
        # touching any RNG stream.
        config = PmcastConfig(fanout=2, redundancy=2)
        plan = FaultPlan(name="burst").with_loss_burst(2, 4, 0.5)
        scalar, vector = _run_pair(
            config, {"loss_probability": 0.05}, faults=plan
        )
        assert vector[0] == scalar[0]
        assert vector[1] == scalar[1]

    def test_link_rules_fall_back(self):
        from repro.sim.network import LossyNetwork

        config = PmcastConfig(fanout=2, redundancy=2)
        event = Event({"golden": 1}, event_id=42)
        reports = []
        for run in (scalar_dissemination, run_dissemination):
            group, addresses = _build_group(config)
            network = LossyNetwork(0.0, derive_rng(11, "network", 42))
            network.block(
                lambda sender, dest: (sender, dest)
                == (addresses[1], addresses[2])
            )
            reports.append(
                run(
                    group,
                    addresses[0],
                    event,
                    SimConfig(seed=11),
                    network=network,
                )
            )
        assert reports[0] == reports[1]

    def test_hash_seed_independent(self):
        digests = []
        script = textwrap.dedent(
            """
            from repro.addressing import AddressSpace
            from repro.config import PmcastConfig, SimConfig
            from repro.interests.events import Event
            from repro.sim import (
                PmcastGroup, bernoulli_interests, derive_rng,
                run_dissemination,
            )
            space = AddressSpace.regular(4, 3)
            addresses = space.enumerate_regular(4)
            members = bernoulli_interests(
                addresses, 0.3, derive_rng(11, "vector-int")
            )
            group = PmcastGroup.build(
                members, PmcastConfig(fanout=2, redundancy=2)
            )
            report = run_dissemination(
                group, addresses[0], Event({"golden": 1}, event_id=42),
                SimConfig(seed=11, loss_probability=0.05),
            )
            print(report)
            """
        )
        for hash_seed in ("1", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.append(result.stdout)
        assert digests[0] == digests[1]


class TestFallbackObservability:
    """Silent fallback is banned: every scalar run is counted, with its
    reason as a label."""

    def _run(self, registry, faults=None, network=None, **sim_kwargs):
        from repro.obs import Observer

        config = PmcastConfig(fanout=2, redundancy=2)
        group, addresses = _build_group(config)
        return run_dissemination(
            group,
            addresses[0],
            Event({"golden": 1}, event_id=42),
            SimConfig(seed=11, **sim_kwargs),
            faults=faults,
            network=network,
            observer=Observer(registry=registry),
        )

    def test_eligible_run_is_silent_and_uncounted(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._run(registry, loss_probability=0.05)
        assert registry.counter("sim", "vector_fallback").value == 0

    def test_fault_fallback_counted_by_reason(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        plan = FaultPlan(name="burst").with_loss_burst(2, 4, 0.5)
        self._run(registry, faults=plan)
        assert registry.counter("sim", "vector_fallback").value == 1
        assert (
            registry.counter("sim", "vector_fallback_faults").value == 1
        )
        assert (
            registry.counter("sim", "vector_fallback_link_rules").value
            == 0
        )

    def test_link_rule_fallback_counted_by_reason(self):
        from repro.obs import MetricsRegistry
        from repro.sim.network import LossyNetwork

        registry = MetricsRegistry()
        network = LossyNetwork(0.0, derive_rng(11, "network", 42))
        network.block(lambda sender, dest: False)
        self._run(registry, network=network)
        assert (
            registry.counter("sim", "vector_fallback_link_rules").value
            == 1
        )


class TestTracedBitIdentity:
    """Sampled or not, both engines must emit the same records."""

    def _traced_run(self, config, sim_kwargs, vectorized, rate=None):
        from repro.obs import TraceLog
        from repro.obs.sampling import TraceSampler

        group, addresses = _build_group(config)
        trace = TraceLog()
        run = run_dissemination if vectorized else scalar_dissemination
        report = run(
            group,
            addresses[0],
            Event({"golden": 1}, event_id=42),
            SimConfig(seed=11, **sim_kwargs),
            trace=trace,
            sampler=TraceSampler(rate) if rate is not None else None,
        )
        return report, trace

    @pytest.mark.parametrize(
        "config,sim_kwargs", [m[1:] for m in MATRIX],
        ids=[m[0] for m in MATRIX],
    )
    def test_full_traces_identical(self, config, sim_kwargs):
        __, scalar = self._traced_run(config, sim_kwargs, False)
        __, vector = self._traced_run(config, sim_kwargs, True)
        assert [r.to_dict() for r in vector] == [
            r.to_dict() for r in scalar
        ]

    @pytest.mark.parametrize("rate", [0.25, 0.6])
    def test_sampled_traces_identical_and_subset(self, rate):
        config = PmcastConfig(fanout=2, redundancy=2)
        sim_kwargs = {"loss_probability": 0.05, "crash_fraction": 0.03}
        full_report, full = self._traced_run(config, sim_kwargs, False)
        scalar_report, scalar = self._traced_run(
            config, sim_kwargs, False, rate=rate
        )
        vector_report, vector = self._traced_run(
            config, sim_kwargs, True, rate=rate
        )
        # Sampling is out of band: the report never changes.
        assert scalar_report == full_report
        assert vector_report == full_report
        scalar_records = [r.to_dict() for r in scalar]
        assert [r.to_dict() for r in vector] == scalar_records
        assert vector.meta["sampling"] == scalar.meta["sampling"]
        full_set = {tuple(sorted(r.to_dict().items())) for r in full}
        assert {
            tuple(sorted(r)) for r in (d.items() for d in scalar_records)
        } <= full_set
        assert 0 < len(scalar) < len(full)


#: The schedules the event driver is held to: the engine's cadence,
#: half- and full-period jitter, and 30% of processes at 3x period.
SCHEDULES = [
    ("round", lambda: RoundSchedule()),
    ("jitter_0.5", lambda: JitteredSchedule(0.5, seed=5)),
    ("jitter_1.0", lambda: JitteredSchedule(1.0, seed=6)),
    ("straggler", lambda: StragglerSchedule(0.3, 3, seed=7)),
]


def _scheduled_outcome(
    run, config, sim_kwargs, schedule, seed=11, sampler=None,
    event_records=False,
):
    """One scheduled run on a fresh group: report, node state, trace."""
    from repro.obs import TraceLog

    event = Event({"golden": 1}, event_id=42)
    group, addresses = _build_group(config, seed)
    trace = TraceLog()
    report = run(
        group,
        addresses[0],
        event,
        SimConfig(seed=seed, **sim_kwargs),
        schedule=schedule,
        trace=trace,
        sampler=sampler,
        event_records=event_records,
    )
    nodes = {
        str(a): (
            group.node(a).alive,
            group.node(a).has_received(event),
            group.node(a).has_delivered(event),
            group.node(a).messages_sent,
            group.node(a).receptions,
            group.node(a).is_idle,
        )
        for a in addresses
    }
    return report, nodes, trace.meta, [r.to_dict() for r in trace]


class TestScheduledBitIdentity:
    """``run_sim_dissemination`` takes the compat kernel's event driver;
    it must equal the scalar ``PmcastVariant`` event loop record for
    record, under every schedule and every ``PmcastConfig`` switch."""

    @pytest.mark.parametrize(
        "schedule", [s[1] for s in SCHEDULES], ids=[s[0] for s in SCHEDULES]
    )
    @pytest.mark.parametrize(
        "config,sim_kwargs", [m[1:] for m in MATRIX],
        ids=[m[0] for m in MATRIX],
    )
    def test_report_state_and_trace_identical(
        self, config, sim_kwargs, schedule
    ):
        scalar = _scheduled_outcome(
            scalar_sim_dissemination, config, sim_kwargs, schedule()
        )
        kernel = _scheduled_outcome(
            run_sim_dissemination, config, sim_kwargs, schedule()
        )
        assert kernel == scalar

    def test_sampled_trace_identical(self):
        from repro.obs.sampling import TraceSampler

        config = PmcastConfig(fanout=2, redundancy=2)
        sim_kwargs = {"loss_probability": 0.05, "crash_fraction": 0.03}
        outcomes = [
            _scheduled_outcome(
                run, config, sim_kwargs, JitteredSchedule(0.5, seed=5),
                sampler=TraceSampler(0.4),
            )
            for run in (scalar_sim_dissemination, run_sim_dissemination)
        ]
        assert outcomes[1] == outcomes[0]
        assert "sampling" in outcomes[1][2]

    def test_event_records_identical(self):
        config = PmcastConfig(fanout=2, redundancy=2)
        sim_kwargs = {"loss_probability": 0.1, "crash_fraction": 0.05}
        outcomes = [
            _scheduled_outcome(
                run, config, sim_kwargs, StragglerSchedule(0.3, 3, seed=7),
                event_records=True,
            )
            for run in (scalar_sim_dissemination, run_sim_dissemination)
        ]
        assert outcomes[1] == outcomes[0]
        assert "net" in outcomes[1][2]
        assert any(r["kind"] == "timer_fire" for r in outcomes[1][3])

    def test_eligible_scheduled_run_takes_the_kernel(self):
        from repro.obs import MetricsRegistry, Observer

        registry = MetricsRegistry()
        group, addresses = _build_group(PmcastConfig(fanout=2, redundancy=2))
        run_sim_dissemination(
            group,
            addresses[0],
            Event({"golden": 1}, event_id=42),
            SimConfig(seed=11, loss_probability=0.05),
            schedule=JitteredSchedule(0.5, seed=5),
            observer=Observer(registry=registry),
        )
        assert registry.counter("sim", "vector_fallback").value == 0
        assert registry.counter("vector", "runs").value == 1

    def test_faulted_scheduled_run_falls_back_counted(self):
        from repro.obs import MetricsRegistry, Observer

        registry = MetricsRegistry()
        group, addresses = _build_group(PmcastConfig(fanout=2, redundancy=2))
        run_sim_dissemination(
            group,
            addresses[0],
            Event({"golden": 1}, event_id=42),
            SimConfig(seed=11),
            schedule=JitteredSchedule(0.5, seed=5),
            faults=FaultPlan(name="burst").with_loss_burst(2, 4, 0.5),
            observer=Observer(registry=registry),
        )
        assert registry.counter("sim", "vector_fallback").value == 1
        assert registry.counter("sim", "vector_fallback_faults").value == 1
        assert registry.counter("vector", "runs").value == 0


class TestScheduledErrorOrder:
    """Both errors surface before any kernel work: the crashed
    publisher first, then a latency outside the period."""

    def _run(self, crash_publisher, latency_us):
        from repro.obs import MetricsRegistry, Observer

        registry = MetricsRegistry()
        event = Event({"golden": 1}, event_id=42)
        group, addresses = _build_group(PmcastConfig(fanout=2, redundancy=2))
        group.node(addresses[0]).alive = not crash_publisher
        try:
            run_sim_dissemination(
                group,
                addresses[0],
                event,
                SimConfig(seed=11),
                schedule=JitteredSchedule(0.5, seed=5, period_us=1000),
                latency_us=latency_us,
                observer=Observer(registry=registry),
            )
        finally:
            assert registry.counter("vector", "runs").value == 0
            assert not any(
                group.node(a).has_received(event) for a in addresses
            )

    def test_crashed_publisher_before_bad_latency(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            self._run(crash_publisher=True, latency_us=1000)

    @pytest.mark.parametrize("latency_us", [0, 1000, 5000])
    def test_bad_latency_rejected(self, latency_us):
        from repro.errors import NetError

        with pytest.raises(NetError):
            self._run(crash_publisher=False, latency_us=latency_us)


class TestRegularTreeSpec:
    def test_rejects_shallow_trees(self):
        with pytest.raises(VectorUnsupported):
            RegularTreeSpec.build(
                4, 1, np.zeros(4, dtype=bool),
                config=PmcastConfig(fanout=2, redundancy=2),
                sim_config=SimConfig(),
            )

    def test_rejects_redundancy_above_arity(self):
        with pytest.raises(VectorUnsupported):
            RegularTreeSpec.build(
                2, 2, np.zeros(4, dtype=bool),
                config=PmcastConfig(fanout=2, redundancy=3),
                sim_config=SimConfig(),
            )

    def test_rejects_local_interest_shortcut(self):
        with pytest.raises(VectorUnsupported):
            RegularTreeSpec.build(
                3, 2, np.ones(9, dtype=bool),
                config=PmcastConfig(
                    fanout=2, redundancy=2, local_interest_shortcut=True
                ),
                sim_config=SimConfig(),
            )

    def test_rejects_wrong_interest_shape(self):
        with pytest.raises(VectorUnsupported):
            RegularTreeSpec.build(
                3, 2, np.ones(8, dtype=bool),
                config=PmcastConfig(fanout=2, redundancy=2),
                sim_config=SimConfig(),
            )

    def test_shard_geometry(self):
        spec = RegularTreeSpec.build(
            3, 3, np.ones(27, dtype=bool),
            config=PmcastConfig(fanout=2, redundancy=2),
            sim_config=SimConfig(),
        )
        assert spec.size == 27
        assert spec.num_shards == 3
        assert spec.shard_size == 9


class TestShardWaveInvariants:
    """Hypothesis invariants on the SoA state transitions."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        arity=st.sampled_from([3, 4, 5]),
        fanout=st.integers(min_value=1, max_value=3),
        eps=st.sampled_from([0.0, 0.1, 0.3]),
        tau=st.sampled_from([0.0, 0.1]),
    )
    def test_transitions(self, seed, arity, fanout, eps, tau):
        config = PmcastConfig(
            fanout=fanout, redundancy=2, min_rounds_per_depth=1
        )
        sim = SimConfig(
            seed=seed, loss_probability=eps, crash_fraction=tau,
            max_rounds=24,
        )
        own = (
            np.random.default_rng(seed).random(arity ** 2) < 0.5
        )
        spec = RegularTreeSpec.build(
            arity, 2, own, config=config, sim_config=sim
        )
        states = {
            shard: ShardState.create(spec, shard)
            for shard in range(spec.num_shards)
        }
        prev = {
            shard: states[shard].received.copy() for shard in states
        }
        pending = {}
        for round_index in range(spec.max_rounds):
            work = sorted(
                shard for shard in states
                if states[shard].busy or shard in pending
            )
            if not work:
                break
            incoming = pending
            pending = {}
            for shard in work:
                inbound = incoming.get(shard, (None, None))
                state, out_dest, out_round, busy, infected = run_shard_wave(
                    states[shard], inbound[0], inbound[1], round_index
                )
                states[shard] = state
                # Received is monotone: nobody forgets an event.
                assert np.all(prev[shard] <= state.received)
                prev[shard] = state.received.copy()
                # Buffer depths stay inside Figure 3's ladder.
                assert np.all(
                    (state.buf_depth >= 0)
                    & (state.buf_depth <= spec.depth)
                )
                # A buffered entry implies a reception (or the publish).
                assert np.all(state.received[state.buf_depth > 0])
                # The reported aggregates match the arrays.
                assert infected == int(state.received.sum())
                assert busy == bool(
                    (state.alive & (state.buf_depth > 0)).any()
                )
                assert state.lost <= state.sent
                if out_dest.size:
                    # Only cross-shard envelopes are exported...
                    assert np.all(
                        out_dest // spec.shard_size != shard
                    )
                    # ...and they address real members.
                    assert np.all((out_dest >= 0) & (out_dest < spec.size))
                    for target in np.unique(out_dest // spec.shard_size):
                        mask = out_dest // spec.shard_size == target
                        slot = pending.setdefault(
                            int(target), ([], [])
                        )
                        slot[0].append(out_dest[mask])
                        slot[1].append(out_round[mask])
            pending = {
                shard: (np.concatenate(dests), np.concatenate(rounds))
                for shard, (dests, rounds) in pending.items()
            }
        # The loop drained (or hit the cap) without losing count.
        total = sum(int(state.received.sum()) for state in states.values())
        assert 1 <= total <= spec.size

