"""The four benchmark workloads, driven only through the public API.

Each workload is a class with the same life cycle:

* ``setup()`` builds everything the first timed op needs (the harness
  times it as ``setup_s``);
* ``batch(index)`` runs the next closed-loop step of the workload and
  returns its :class:`Op` results, each already checked, and adds the
  batch's working time to ``work_s``;
* ``finish()`` returns the run-level check failures, and ``quality()``
  the protocol-quality figures of the run's quality window;
* ``layer_metrics(spans)`` returns the per-layer figures the workload
  can see from outside the program (registry snapshot, timeline spans,
  the benchmark's own spans).

Every random choice derives from the ``--seed`` root through
:func:`repro.par.seeds.derive_rng` / ``derive_seed``, so one seed gives
one input stream.  Quality figures are computed over a fixed window of
ops (the first ``min_batches`` batches), never over however many ops
the time budget allowed, so they are a pure function of the seed.

Every time is taken at reference host speed: the host-speed kernel runs
right before each op and the measured wall time is divided by its
factor (see ``timing.py``).  Kernel and check time are outside every
timed interval.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.bench.figures as figures
import repro.net
from repro.addressing import AddressSpace
from repro.analysis import delivery_probability
from repro.config import PmcastConfig, SimConfig
from repro.interests.events import Event
from repro.net import JitteredSchedule
from repro.obs.probes import Observer
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TimelineRecorder
from repro.par import TrialExecutor
from repro.par.seeds import derive_rng, derive_seed
from repro.sim import (
    CrashSchedule,
    GroupRuntime,
    PmcastGroup,
    bernoulli_interests,
    random_event,
    random_subscriptions,
)
from repro.validate.harness import TREE_DELIVERY_BAND

from timing import HostSpeed, SpanRecorder, percentile

DEPTH = 3
REDUNDANCY = 3
FANOUT = 2
RATES = (0.05, 0.3, 0.7)
LOSS = 0.05
CRASH_FRACTION = 0.02


@dataclass
class Op:
    """One timed operation and the outcome of its output checks."""

    #: Duration at reference host speed.
    ms: float
    digest: Optional[str] = None
    problems: List[str] = field(default_factory=list)


def _digest(*parts: object) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]


class Workload:
    """Shared plumbing: seed, scale, host speed, tracer, working time."""

    name = ""
    paper_arity = 22
    #: Batches the run always completes, whatever the time budget; the
    #: quality window and the run-level checks need them.
    min_batches = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int, arity: Optional[int], speed: HostSpeed,
                 tracer: Optional[SpanRecorder] = None):
        self.seed = seed
        self.arity = arity or self.paper_arity
        self.speed = speed
        self.tracer = tracer
        #: Seconds of batch work at reference speed (the ``ops_per_s``
        #: denominator): ops plus the workload's own publishes and
        #: membership changes, without checks or speed kernels.
        self.work_s = 0.0
        self.quality_totals = {"delivered": 0, "interested": 0, "received": 0,
                               "uninterested": 0, "messages": 0}

    def elapsed_s(self, started: float) -> float:
        """Seconds since ``started``, at reference host speed."""
        return (time.perf_counter() - started) / self.speed.factor

    def close(self) -> None:
        """Undo anything setup installed (idempotent)."""

    def quality(self) -> Dict[str, float]:
        totals = self.quality_totals
        return {
            "delivery_ratio": totals["delivered"] / max(totals["interested"], 1),
            "false_reception_ratio": totals["received"] / max(totals["uninterested"], 1),
            "messages_per_delivery": totals["messages"] / max(totals["delivered"], 1),
        }


# -- static trials: sweep_static and async_jitter -------------------------------


def check_trial(group: PmcastGroup, publisher, event: Event, report) -> List[str]:
    """Report invariants that hold for any seed, read back from node state."""
    problems = []
    interested = set(group.interested_members(event))
    if report.group_size != group.size:
        problems.append("group_size differs from the group")
    if report.interested != len(interested):
        problems.append("interested count differs from ground truth")
    if report.delivered_interested > report.interested:
        problems.append("delivered_interested > interested")
    if report.received_uninterested > report.uninterested:
        problems.append("received_uninterested > uninterested")
    if report.messages_lost > report.messages_sent:
        problems.append("messages_lost > messages_sent")
    received = delivered = false = 0
    for node in group.nodes():
        address = node.address
        got = node.has_received(event)
        received += got
        if node.has_delivered(event):
            delivered += 1
            if address not in interested:
                problems.append(f"delivered at uninterested {address}")
                break
        elif got and address in interested:
            problems.append(f"received but not delivered at interested {address}")
            break
        if got and address not in interested and address != publisher:
            false += 1
    if delivered != report.delivered_interested:
        problems.append("delivered_interested differs from delivering nodes")
    if false != report.received_uninterested:
        problems.append("false receptions differ from uninterested receivers")
    if received != report.received_total:
        problems.append("received_total differs from receiving nodes")
    curve = report.infection_curve
    if any(b < a for a, b in zip(curve, curve[1:])) or (curve and curve[-1] != received):
        problems.append("infection curve not monotone up to received_total")
    return problems


def report_digest(report) -> str:
    return _digest(
        report.group_size, report.interested, report.uninterested,
        report.delivered_interested, report.received_uninterested,
        report.received_total, report.crashed, report.rounds,
        report.messages_sent, report.messages_lost,
        report.duplicate_receptions, tuple(report.infection_curve),
    )


class _TimedExecutor(TrialExecutor):
    """A serial executor that hands each trial call to the workload to time."""

    def __init__(self, workload: "TrialWorkload"):
        super().__init__(jobs=1)
        self.workload = workload

    def run(self, fn, tasks, checkpoint=None):
        return super().run(lambda task: self.workload.trial(task[0], lambda: fn(task)),
                           tasks, checkpoint)


_FAILED_ROW = {"delivery": math.nan, "false_reception": math.nan,
               "rounds": math.nan, "messages": math.nan}


class TrialWorkload(Workload):
    """One batch = one trial per p_d, at seed ``derive_seed(seed, ..., k)``."""

    min_batches = 3
    setup_repeats = 9

    def setup(self) -> None:
        space = AddressSpace.regular(self.arity, DEPTH)
        self.addresses = tuple(space.enumerate_regular(self.arity))
        self.config = PmcastConfig(fanout=FANOUT, redundancy=REDUNDANCY)
        self.delivery: Dict[float, List[float]] = {rate: [] for rate in RATES}
        self.reports: List = []
        self.ops: List[Op] = []
        self._captured: List[Tuple] = []
        self._batch_index = 0
        self._op_count = 0

    def batch_seed(self, index: int) -> int:
        # One label for both trial workloads: they run the same inputs.
        return derive_seed(self.seed, "perfbench-trials", index)

    def trial(self, rate: float, call: Callable[[], object]):
        """Time one trial call, then check what ``_capture`` saw of it."""
        del self._captured[:]
        if self.tracer is not None:
            self.tracer.op = self._op_count
        self._op_count += 1
        self.speed.calibrate()
        started = time.perf_counter()
        try:
            traced = self.tracer is not None
            result = self.tracer.call("par.trial", call) if traced else call()
            error = None
        except Exception as exc:  # an op that raises fails; the run goes on
            result, error = dict(_FAILED_ROW), exc
        op = Op(ms=self.elapsed_s(started) * 1000.0)
        self.work_s += op.ms / 1000.0
        if error is not None:
            op.problems.append(f"raised {error!r}")
        elif len(self._captured) != 1:
            op.problems.append("trial produced no single report")
        else:
            group, publisher, event, report = self._captured[0]
            op.problems.extend(check_trial(group, publisher, event, report))
            op.digest = report_digest(report)
            self.delivery[rate].append(report.delivery_ratio)
            self.reports.append(report)
            if self._batch_index < self.min_batches:
                totals = self.quality_totals
                totals["delivered"] += report.delivered_interested
                totals["interested"] += report.interested
                totals["received"] += report.received_uninterested
                totals["uninterested"] += report.uninterested
                totals["messages"] += report.messages_sent
        del self._captured[:]
        self.ops.append(op)
        return result

    def _capture(self, fn: Callable) -> Callable:
        """Wrap a dissemination entry point so checks see its inputs and report."""

        def capturing(group, publisher, event, *args, **kwargs):
            report = fn(group, publisher, event, *args, **kwargs)
            self._captured.append((group, publisher, event, report))
            return report

        return capturing

    def batch(self, index: int) -> List[Op]:
        self._batch_index = index
        self.ops = []
        self.run_batch(self.batch_seed(index))
        return self.ops

    def run_batch(self, seed: int) -> None:
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Each p_d's mean delivery must sit in the Eqs 12-18 oracle band.

        The band is checked at paper scale only: at toy sizes (a=5) the
        tree model undershoots the p_d=0.05 point, where a group holds
        about six interested processes.
        """
        problems = []
        for rate, samples in self.delivery.items():
            if not samples:
                problems.append(f"no successful trial at p_d={rate}")
                continue
            if self.arity != self.paper_arity:
                continue
            predicted = delivery_probability(
                rate, self.arity, DEPTH, REDUNDANCY, FANOUT, LOSS, CRASH_FRACTION
            )
            stderr = statistics.stdev(samples) / math.sqrt(len(samples)) if len(samples) > 1 else 0.0
            low, high = TREE_DELIVERY_BAND.bounds(predicted, stderr)
            mean = statistics.fmean(samples)
            if not low <= mean <= high:
                problems.append(
                    f"p_d={rate}: mean delivery {mean:.4f} outside [{low:.4f}, {high:.4f}]"
                )
        return problems

    def layer_metrics(self, spans: SpanRecorder) -> Dict[str, float]:
        return {
            "membership.group_build_ms_p50": spans.p50_ms("membership.group_build"),
            "par.trial_self_ms_p50": spans.p50_ms("par.trial", self_time=True),
        }


class SweepStatic(TrialWorkload):
    """``reliability_sweep`` at paper scale on the round-synchronous engine."""

    name = "sweep_static"

    def setup(self) -> None:
        super().setup()
        self._original = figures.__dict__["run_dissemination"]
        figures.run_dissemination = self._capture(self._original)

    def close(self) -> None:
        original = getattr(self, "_original", None)
        if original is not None:
            figures.run_dissemination = original
            self._original = None

    def run_batch(self, seed: int) -> None:
        figures.reliability_sweep(
            RATES, self.arity, DEPTH, REDUNDANCY, FANOUT, trials=1, seed=seed,
            loss_probability=LOSS, crash_fraction=CRASH_FRACTION,
            executor=_TimedExecutor(self),
        )

    def layer_metrics(self, spans: SpanRecorder) -> Dict[str, float]:
        reports = self.reports
        return {
            **super().layer_metrics(spans),
            "sim.engine.run_ms_p50": spans.p50_ms("sim.engine.run"),
            "sim.engine.rounds_mean": statistics.fmean(r.rounds for r in reports),
            "sim.engine.messages_mean": statistics.fmean(r.messages_sent for r in reports),
        }


class AsyncJitter(TrialWorkload):
    """The sweep's trial inputs on the discrete-event network simulator."""

    name = "async_jitter"

    def run_batch(self, seed: int) -> None:
        for rate in RATES:
            self.trial(rate, lambda: self._one_trial(rate, seed))

    def _one_trial(self, rate: float, seed: int) -> Dict[str, float]:
        # The inputs of repro.bench.figures' sweep trial (rate, trial 0),
        # derived the same way, so both trial workloads see one stream.
        interest_rng = derive_rng(seed, ("interests", rate), 0)
        members = bernoulli_interests(self.addresses, rate, interest_rng)
        group = PmcastGroup.build(members, self.config)
        publisher = interest_rng.choice(self.addresses)
        event = Event({"sweep": 1}, event_id=derive_rng(seed, ("event", rate), 0).randrange(2**31))
        sim = SimConfig(
            loss_probability=LOSS,
            seed=derive_rng(seed, ("sim", rate), 0).randrange(2**31),
        )
        crashes = CrashSchedule.sample(
            self.addresses, CRASH_FRACTION, horizon=32, rng=derive_rng(seed, ("crash", rate), 0)
        )
        schedule = JitteredSchedule(0.5, seed=sim.seed, period_us=self.config.period_ms * 1000)
        run = self._capture(repro.net.run_sim_dissemination)
        report = run(group, publisher, event, sim, schedule=schedule, crash_schedule=crashes)
        return {"delivery": report.delivery_ratio}

    def layer_metrics(self, spans: SpanRecorder) -> Dict[str, float]:
        runs = spans.durations("net.run")
        messages = sum(report.messages_sent for report in self.reports)
        return {
            **super().layer_metrics(spans),
            "net.run_ms_p50": spans.p50_ms("net.run"),
            "net.us_per_message": sum(runs) * 1e6 / max(messages, 1),
        }


# -- live runtimes: live_stream and live_churn ----------------------------------


@dataclass
class _Published:
    round: int
    event: Event
    publisher: object


class LiveWorkload(Workload):
    """A :class:`GroupRuntime` driven round by round; one op = one ``step()``.

    Set-up is runtime construction plus round 1, because round 1 builds
    the peer pools lazily.  Published events are checked once they are
    ``settle_rounds`` old; the first ``quality_events`` of them form the
    quality window.
    """

    publish_every = 1
    #: Rounds after which an event no longer spreads at these scales
    #: (delivery stops growing by round 20-23 of an event's life).
    settle_rounds = 24
    quality_events = 1

    @property
    def min_batches(self) -> int:  # type: ignore[override]
        last = 1 + self.publish_every * (self.quality_events - 1)
        return last + self.settle_rounds

    def members(self) -> Dict:
        raise NotImplementedError

    def setup(self) -> None:
        self.rng = derive_rng(self.seed, ("perfbench", self.name), 0)
        members = self.members()
        self.registry = MetricsRegistry()
        self.timeline = TimelineRecorder() if self.tracer is not None else None
        # Timeline span starts are relative to the recorder's creation.
        self.timeline_origin = time.perf_counter()
        observer = Observer(registry=self.registry, timeline=self.timeline)
        started = time.perf_counter()
        self.runtime = GroupRuntime(
            members,
            PmcastConfig(fanout=FANOUT, redundancy=REDUNDANCY),
            SimConfig(loss_probability=LOSS, seed=derive_seed(self.seed, "perfbench-runtime", 0)),
            detector_timeout=12,
            observer=observer,
        )
        self.build_s = self.elapsed_s(started)
        built = time.perf_counter()
        self.events: List[_Published] = []
        self.checked_events = 0
        self.window_deliveries = 0
        self.active: List[int] = []
        if self.tracer is not None:
            self.tracer.op = 1
        self.before_round(1)
        self.runtime.step()
        self.first_round_s = self.elapsed_s(built)

    def before_round(self, round_index: int) -> None:
        """Workload actions due before ``round_index`` is stepped."""
        if (round_index - 1) % self.publish_every == 0:
            publisher = self.pick_publisher()
            event = self.make_event(len(self.events))
            self.runtime.publish(publisher, event)
            self.events.append(_Published(round_index, event, publisher))

    def batch(self, index: int) -> List[Op]:
        runtime = self.runtime
        round_index = runtime.round + 1
        op = Op(ms=0.0)
        if self.tracer is not None:
            self.tracer.op = round_index
        self.speed.calibrate()
        batch_started = time.perf_counter()
        try:
            self.before_round(round_index)
            started = time.perf_counter()
            try:
                runtime.step()
            finally:
                op.ms = self.elapsed_s(started) * 1000.0
        except Exception as exc:  # an op that raises fails; the run goes on
            op.problems.append(f"raised {exc!r}")
        self.work_s += self.elapsed_s(batch_started)
        self.active.append(runtime.active_count)
        snapshot = self.registry.snapshot()
        rt, membership = snapshot.get("runtime", {}), snapshot.get("membership", {})
        op.digest = _digest(
            runtime.round, runtime.size, runtime.active_count,
            rt.get("envelopes_sent", 0), rt.get("envelopes_lost", 0),
            rt.get("deliveries", 0), rt.get("receptions", 0),
            membership.get("pulls", 0), membership.get("exclusions", 0),
        )
        if runtime.round != round_index:
            op.problems.append(f"round {runtime.round} after stepping {round_index}")
        if runtime.size != self.expected_size():
            op.problems.append(f"size {runtime.size} != expected {self.expected_size()}")
        if runtime.active_count > runtime.size:
            op.problems.append("more active processes than members")
        while (self.checked_events < len(self.events)
               and runtime.round - self.events[self.checked_events].round >= self.settle_rounds):
            in_window = self.checked_events < self.quality_events
            op.problems.extend(self.check_event(self.events[self.checked_events], in_window))
            self.checked_events += 1
            if in_window and self.checked_events == self.quality_events:
                self.quality_totals["messages"] = rt.get("envelopes_sent", 0)
                self.window_deliveries = rt.get("deliveries", 0)
        return [op]

    def check_event(self, published: _Published, in_window: bool) -> List[str]:
        """Delivery only at interested members; every interested receiver delivers."""
        problems = []
        event, totals = published.event, self.quality_totals
        runtime = self.runtime
        for address in self.stable_members(published.round):
            node = runtime.node(address)
            interested = runtime.tree.interest_of(address).matches(event)
            got, delivered = node.has_received(event), node.has_delivered(event)
            if delivered and not interested:
                problems.append(f"event {event.event_id} delivered at uninterested {address}")
            if got and interested and not delivered:
                problems.append(f"event {event.event_id} received, not delivered at {address}")
            if not in_window or address == published.publisher:
                continue
            if interested:
                totals["interested"] += 1
                totals["delivered"] += delivered
            else:
                totals["uninterested"] += 1
                totals["received"] += got
        return problems

    def quality(self) -> Dict[str, float]:
        out = super().quality()
        # Envelopes per delivery over the whole window, publishers'
        # own deliveries included, read from the runtime's counters.
        out["messages_per_delivery"] = (
            self.quality_totals["messages"] / max(self.window_deliveries, 1)
        )
        return out

    def finish(self) -> List[str]:
        if self.checked_events < self.quality_events:
            return [f"only {self.checked_events} of {self.quality_events} window events settled"]
        return []

    def layer_metrics(self, spans: SpanRecorder) -> Dict[str, float]:
        snapshot = self.registry.snapshot()
        rounds = max(self.runtime.round, 1)
        rt = snapshot.get("runtime", {})
        membership = snapshot.get("membership", {})
        gossip = snapshot.get("gossip_pull", {})
        detector = snapshot.get("detector", {})
        cache = snapshot.get("match_cache", {})
        far = membership.get("far_cache_hits", 0) + membership.get("far_cache_misses", 0)
        exclusion = detector.get("exclusion_latency_rounds") or {}
        return {
            "runtime.build_s": self.build_s,
            "runtime.first_round_s": self.first_round_s,
            "runtime.fan_out_ms_p50": spans.p50_ms("runtime.fan_out"),
            "runtime.exchange_ms_p50": spans.p50_ms("runtime.exchange"),
            "runtime.membership_ms_p50": spans.p50_ms("runtime.membership"),
            "runtime.unattributed_ms_p50": spans.p50_ms("runtime.step", self_time=True),
            "runtime.envelopes_per_round": rt.get("envelopes_sent", 0) / rounds,
            "runtime.active_mean": statistics.fmean(self.active) if self.active else 0.0,
            "membership.pulls_per_round": membership.get("pulls", 0) / rounds,
            "gossip_pull.synced_rate": gossip.get("synced_exchanges", 0)
            / max(gossip.get("exchanges", 0), 1),
            "membership.far_cache_hit_rate": membership.get("far_cache_hits", 0) / max(far, 1),
            "detector.suspicion_reports_per_round": detector.get("suspicion_reports", 0) / rounds,
            "detector.accusations": detector.get("accusations", 0),
            "detector.exclusion_latency_rounds": exclusion.get("mean", 0.0),
            "match_cache.table_hit_rate": cache.get("table_hit_rate", 0.0),
            "match_cache.verdict_hit_rate": cache.get("verdict_hit_rate", 0.0),
            # Explicit invalidation calls plus the membership-driven
            # (table-token) ones the runtime reports by cause.
            "match_cache.invalidations": cache.get("invalidations", 0)
            + sum(cache.get("invalidation_causes", {}).values()),
        }

    def add_timeline_spans(self, spans: SpanRecorder) -> None:
        """Hang the runtime's own phase spans under the matching step span."""
        steps = {record.op: record for record in spans.records if record.name == "runtime.step"}
        for entry in self.timeline.spans():
            parent = steps.get(entry["round"])
            if entry["subsystem"] == "runtime" and parent is not None:
                start = self.timeline_origin + entry["start"]
                spans.add(f"runtime.{entry['phase']}", parent, start, start + entry["seconds"])


class LiveStream(LiveWorkload):
    """Paper scale, Bernoulli p=0.25 interests, 3 crashes after warm-up."""

    name = "live_stream"
    publish_every = 4
    quality_events = 4
    crash_round = 5
    victims_count = 3

    def members(self) -> Dict:
        addresses = AddressSpace.regular(self.arity, DEPTH).enumerate_regular(self.arity)
        members = bernoulli_interests(addresses, 0.25, self.rng)
        self.victims = self.rng.sample(addresses, self.victims_count)
        victims = set(self.victims)
        self.survivors = [a for a in addresses if a not in victims]
        self.publishers = list(self.survivors)
        self.rng.shuffle(self.publishers)
        return members

    def pick_publisher(self):
        return self.publishers[len(self.events) % len(self.publishers)]

    def make_event(self, index: int) -> Event:
        return Event({"stream": index}, event_id=1 + index)

    def before_round(self, round_index: int) -> None:
        if round_index == self.crash_round:
            for victim in self.victims:
                self.runtime.crash(victim)
        super().before_round(round_index)

    def expected_size(self) -> int:
        excluded = sum(self.runtime.exclusion_round(v) is not None for v in self.victims)
        return len(self.survivors) + len(self.victims) - excluded

    def stable_members(self, since_round: int) -> Sequence:
        return self.survivors

    @property
    def min_batches(self) -> int:  # type: ignore[override]
        # Also well past crash + detector_timeout, so exclusion is seen.
        return max(super().min_batches, self.crash_round + 12 + 12)

    def finish(self) -> List[str]:
        problems = super().finish()
        missing = [str(v) for v in self.victims if self.runtime.exclusion_round(v) is None]
        if missing:
            problems.append(f"crashed members never excluded: {', '.join(missing)}")
        return problems


class LiveChurn(LiveWorkload):
    """a=12 content subscriptions with 4 join/leave/update calls per round."""

    name = "live_churn"
    paper_arity = 12
    publish_every = 2
    quality_events = 20
    changes_per_round = 4
    reserve = 64
    setup_repeats = 5

    def members(self) -> Dict:
        addresses = AddressSpace.regular(self.arity, DEPTH).enumerate_regular(self.arity)
        subscriptions = random_subscriptions(addresses, self.rng)
        absent = set(self.rng.sample(addresses, min(self.reserve, len(addresses) // 8)))
        self.present = [a for a in addresses if a not in absent]
        self.absent = [a for a in addresses if a in absent]
        self.touched: Dict = {}
        self.change_ms: Dict[str, List[float]] = {"join": [], "leave": [], "update_interest": []}
        return {a: subscriptions[a] for a in self.present}

    def pick_publisher(self):
        return self.rng.choice(self.present)

    def make_event(self, index: int) -> Event:
        return random_event(self.rng, event_id=1 + index)

    def before_round(self, round_index: int) -> None:
        if round_index > 1:
            for __ in range(self.changes_per_round):
                self.change(round_index)
        super().before_round(round_index)

    def change(self, round_index: int) -> None:
        """One seeded membership change, timed as a change op."""
        rng, runtime = self.rng, self.runtime
        kind = rng.choice(("join", "leave", "update_interest"))
        if kind == "join" and not self.absent:
            kind = "update_interest"
        if kind == "leave" and len(self.present) <= len(self.absent):
            kind = "update_interest"
        if kind == "join":
            pool, position = self.absent, rng.randrange(len(self.absent))
        else:
            pool, position = self.present, rng.randrange(len(self.present))
        address = pool[position]
        interest = None
        if kind != "leave":
            interest = random_subscriptions([address], rng)[address]
        started = time.perf_counter()
        if kind == "join":
            runtime.join(address, interest)
        elif kind == "leave":
            runtime.leave(address)
        else:
            runtime.update_interest(address, interest)
        self.change_ms[kind].append(self.elapsed_s(started) * 1000.0)
        if kind != "update_interest":
            pool[position] = pool[-1]
            pool.pop()
            (self.present if kind == "join" else self.absent).append(address)
        self.touched[address] = round_index

    def expected_size(self) -> int:
        return len(self.present)

    def stable_members(self, since_round: int) -> Sequence:
        touched = self.touched
        return [a for a in self.present if touched.get(a, 0) < since_round]

    def layer_metrics(self, spans: SpanRecorder) -> Dict[str, float]:
        out = super().layer_metrics(spans)
        changes = [ms for samples in self.change_ms.values() for ms in samples]
        tables = self.registry.snapshot().get("views", {}).get("tables_refreshed", 0)
        out.update({
            "membership.join_ms_p50": spans.p50_ms("runtime.join"),
            "membership.leave_ms_p50": spans.p50_ms("runtime.leave"),
            "membership.update_interest_ms_p50": spans.p50_ms("runtime.update_interest"),
            "membership.change_ms_p50": percentile(changes, 50),
            "membership.change_ms_p90": percentile(changes, 90),
            "views.tables_refreshed_per_change": tables / max(len(changes), 1),
        })
        return out


WORKLOADS = {cls.name: cls for cls in (SweepStatic, AsyncJitter, LiveStream, LiveChurn)}
