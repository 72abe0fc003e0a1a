"""Hot-path microbenchmarks: ``python -m repro.bench.perf``.

The figure harnesses (:mod:`repro.bench.figures`) measure *protocol*
quality; this module measures *implementation* speed on the paths the
round loop actually exercises at paper scale (n ≈ 10 000, §5):

* ``round_loop`` — a full :class:`~repro.sim.runtime.GroupRuntime`
  dissemination (event gossip + membership gossip-pull + failure
  detection every round), the system of §2.3;
* ``engine`` — a single :func:`~repro.sim.engine.run_dissemination`
  over a static group (the Figure 4/5 inner loop), with the
  :class:`~repro.sim.metrics.DisseminationReport` digested so two runs
  can be checked for byte-identical outcomes;
* ``churn_refresh`` — the cost of join/leave view maintenance
  (:meth:`GroupRuntime._refresh_path`) under a churn burst;
* ``match_cache`` — a content-based (subscription) workload reporting
  the :class:`~repro.core.context.GossipContext` cache counters;
* ``membership_plane`` — membership + detection rounds at scale with
  **zero in-flight events**: the pure §2.3 background cost (gossip-pull
  exchanges, failure detection, a crash burst driving exclusion).  Its
  digest folds in the membership-plane counters, so any change to
  suspicion/exclusion/anti-entropy behavior — not just timing — is
  caught by digest comparison against a recorded baseline.

Every benchmark records wall-clock seconds and a ``digest`` of the
observable outcome (delivered sets, report fields), so speedups can be
claimed only alongside proof that the results did not change.

The CLI writes a JSON report (default ``BENCH_PR1.json`` in the current
directory).  ``--baseline FILE`` merges a previously captured run —
e.g. one taken at the pre-optimization commit with this same harness —
and computes per-benchmark speedups.  The report keeps its results
under ``results["current"]``, the key ``python -m repro.obs regress``
compares.

Introspection counters (``active_count``, the match-cache hit rates)
are read from a :class:`~repro.obs.registry.MetricsRegistry` attached
to each runtime via an :class:`~repro.obs.probes.Observer` — the
harness never reaches into runtime internals.  ``--trace FILE``
additionally captures a JSONL trace of a quick engine dissemination,
suitable for ``python -m repro.obs validate`` / ``summarize``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.addressing import AddressSpace
from repro.config import PmcastConfig, SimConfig
from repro.interests.events import Event
from repro.obs import MetricsRegistry, Observer, TimelineRecorder, TraceLog
from repro.sim.rng import derive_rng
from repro.sim.workload import bernoulli_interests, random_subscriptions

__all__ = ["emit_trace", "main", "run_suite"]

SCHEMA = "repro.bench.perf/v1"

#: Paper scale: a = 22, d = 3 -> n = 10 648 (the §5 configuration).
PAPER_SCALE = {"arity": 22, "depth": 3}
#: CI scale: a = 5, d = 3 -> n = 125.
QUICK_SCALE = {"arity": 5, "depth": 3}


def _sha1(parts: Sequence[str]) -> str:
    digest = hashlib.sha1()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _report_digest(report: Any) -> str:
    """The canonical engine-outcome digest (shared by ``engine`` and
    ``scale_loop`` so their baselines stay comparable)."""
    fields = (
        report.group_size,
        report.interested,
        report.delivered_interested,
        report.received_uninterested,
        report.received_total,
        report.rounds,
        report.messages_sent,
        report.duplicate_receptions,
    )
    return _sha1([str(field) for field in fields])


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None off-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _current_rss_kb() -> Optional[int]:
    """Resident set size right now in KiB (None where /proc is absent).

    Unlike ``ru_maxrss`` this is not monotone over the process life, so
    per-scenario footprints stay meaningful even after an earlier
    benchmark in the same suite peaked higher.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError):  # pragma: no cover - non-Linux
        return None
    return None


def _build_runtime(
    members, config, sim_config, registry, fault_plan=None, timeline=None,
):
    """Build a GroupRuntime observed through ``registry``/``timeline``."""
    from repro.sim.runtime import GroupRuntime

    return GroupRuntime(
        members,
        config=config,
        sim_config=sim_config,
        observer=Observer(registry=registry, timeline=timeline),
        fault_plan=fault_plan,
    )


def bench_round_loop(
    arity: int, depth: int, seed: int, max_rounds: int = 96,
    timeline: Optional[TimelineRecorder] = None,
) -> Dict[str, Any]:
    """One live-runtime dissemination at scale: the §2.3 round loop."""
    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.25, derive_rng(seed, "perf-interests")
    )
    config = PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2)
    registry = MetricsRegistry()
    started = time.perf_counter()
    runtime = _build_runtime(
        members, config, SimConfig(seed=seed), registry,
        timeline=timeline,
    )
    build_seconds = time.perf_counter() - started

    event = Event({"perf": 1}, event_id=1)
    publisher = addresses[0]
    runtime.publish(publisher, event)
    started = time.perf_counter()
    rounds = runtime.run_until_idle(max_rounds=max_rounds)
    loop_seconds = time.perf_counter() - started
    delivered = runtime.delivered_to(event)
    snapshot = registry.snapshot()
    return {
        "members": len(addresses),
        "build_seconds": round(build_seconds, 4),
        "seconds": round(loop_seconds, 4),
        "rounds": rounds,
        "rounds_per_second": round(rounds / loop_seconds, 2)
        if loop_seconds
        else None,
        "delivered": len(delivered),
        "digest": _sha1([str(a) for a in delivered] + [str(rounds)]),
        "active_count_final": snapshot["runtime"]["active_count"],
        "cache_stats": snapshot.get("match_cache"),
    }


def bench_faulted_round_loop(
    arity: int, depth: int, seed: int, max_rounds: int = 96
) -> Dict[str, Any]:
    """The ``round_loop`` workload under a standard fault episode.

    Measures the per-envelope cost of the :mod:`repro.faults` plane:
    the same group, workload, and seed as ``round_loop``, plus a
    FaultPlan exercising every clause family (a subtree partition, a
    scoped loss burst, a delay window, a delegate crash).  Compare the
    ``seconds`` against the unfaulted benchmark's to bound the
    overhead; the ``digest`` folds in the injector counters so replay
    regressions are visible too.
    """
    from repro.faults import FaultPlan

    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.25, derive_rng(seed, "perf-interests")
    )
    config = PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2)
    plan = (
        FaultPlan(name="perf-episode")
        .with_partition(2, 6, "0", "1")
        .with_loss_burst(1, 5, 0.2, dest_prefix="2")
        .with_delay(3, 5, 2, dest_prefix="3")
        .with_delegate_crash(4, "2", count=1)
    )
    registry = MetricsRegistry()
    started = time.perf_counter()
    runtime = _build_runtime(
        members, config, SimConfig(seed=seed), registry,
        fault_plan=plan,
    )
    build_seconds = time.perf_counter() - started

    event = Event({"perf": 1}, event_id=1)
    runtime.publish(addresses[0], event)
    started = time.perf_counter()
    rounds = runtime.run_until_idle(max_rounds=max_rounds)
    loop_seconds = time.perf_counter() - started
    delivered = runtime.delivered_to(event)
    stats = runtime.fault_stats or {}
    return {
        "members": len(addresses),
        "build_seconds": round(build_seconds, 4),
        "seconds": round(loop_seconds, 4),
        "rounds": rounds,
        "rounds_per_second": round(rounds / loop_seconds, 2)
        if loop_seconds
        else None,
        "delivered": len(delivered),
        "fault_stats": stats,
        "digest": _sha1(
            [str(a) for a in delivered]
            + [str(rounds)]
            + [f"{k}={stats[k]}" for k in sorted(stats)]
        ),
    }


def bench_engine(
    arity: int, depth: int, seed: int
) -> Dict[str, Any]:
    """One static-group dissemination (the Figure 4/5 inner loop)."""
    from repro.sim.engine import run_dissemination
    from repro.sim.group import PmcastGroup

    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.25, derive_rng(seed, "perf-interests")
    )
    config = PmcastConfig(fanout=3, redundancy=3)
    started = time.perf_counter()
    group = PmcastGroup.build(members, config)
    build_seconds = time.perf_counter() - started

    event = Event({"perf": 1}, event_id=7)
    started = time.perf_counter()
    report = run_dissemination(
        group, addresses[0], event, SimConfig(seed=seed)
    )
    seconds = time.perf_counter() - started
    return {
        "members": len(addresses),
        "build_seconds": round(build_seconds, 4),
        "seconds": round(seconds, 4),
        "rounds": report.rounds,
        "delivered_interested": report.delivered_interested,
        "received_uninterested": report.received_uninterested,
        "messages_sent": report.messages_sent,
        "digest": _report_digest(report),
    }


def bench_churn_refresh(
    arity: int, depth: int, seed: int, churn_events: int = 8
) -> Dict[str, Any]:
    """Join/leave bursts: the view-maintenance (_refresh_path) cost."""
    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.25, derive_rng(seed, "perf-interests")
    )
    # Hold some addresses back so there is room to join.
    joiners = addresses[-churn_events:]
    held_back = set(joiners)
    initial = {
        address: interest
        for address, interest in members.items()
        if address not in held_back
    }
    config = PmcastConfig(fanout=3, redundancy=3)
    runtime = _build_runtime(
        initial, config, SimConfig(seed=seed), MetricsRegistry()
    )
    started = time.perf_counter()
    for address in joiners:
        runtime.join(address, members[address])
    for address in joiners:
        runtime.leave(address)
    seconds = time.perf_counter() - started
    # The digest pins the maintenance *outcome*: the surviving member
    # set plus the timestamped view tables along a stable path (the
    # table digests carry the logical clock, so a refresh that stamps
    # differently — or skips a restamp — changes the digest).
    witness = runtime.node(addresses[0])
    view_lines = [
        f"{d}:{sorted(witness.view(d).digest().items())}"
        for d in range(1, depth + 1)
    ]
    digest = _sha1(
        sorted(str(a) for a in runtime.tree.members())
        + [str(runtime.size)]
        + view_lines
    )
    return {
        "members": len(initial),
        "churn_events": 2 * len(joiners),
        "seconds": round(seconds, 4),
        "per_event_ms": round(1000.0 * seconds / (2 * len(joiners)), 3),
        "final_size": runtime.size,
        "digest": digest,
    }


def bench_match_cache(
    arity: int, depth: int, seed: int, events: int = 4
) -> Dict[str, Any]:
    """Content-based workload with churn mid-dissemination.

    This is the scenario the cache layering exists for: joins/leaves
    land while events are still in flight, so per-table invalidation
    (vs. a global cache wipe) determines the hit rate.
    """
    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = random_subscriptions(
        addresses, derive_rng(seed, "perf-subscriptions")
    )
    churners = addresses[-4:]
    churner_set = set(churners)
    initial = {
        address: interest
        for address, interest in members.items()
        if address not in churner_set
    }
    config = PmcastConfig(fanout=3, redundancy=3)
    registry = MetricsRegistry()
    runtime = _build_runtime(
        initial, config, SimConfig(seed=seed), registry
    )
    started = time.perf_counter()
    digests: List[str] = []
    idle_rounds: List[int] = []
    for index in range(events):
        event = Event(
            {"b": index % 7, "c": 25.0 + index, "z": 1000 * index},
            event_id=100 + index,
        )
        runtime.publish(addresses[0], event)
        runtime.run(2)
        churner = churners[index % len(churners)]
        if churner in runtime.tree:
            runtime.leave(churner)
        else:
            runtime.join(churner, members[churner])
        idle_rounds.append(runtime.run_until_idle(max_rounds=64))
        digests.append(
            ",".join(str(a) for a in runtime.delivered_to(event))
        )
    seconds = time.perf_counter() - started
    return {
        "members": len(initial),
        "events": events,
        "seconds": round(seconds, 4),
        "rounds_per_event": idle_rounds,
        "rounds": sum(idle_rounds),
        "digest": _sha1(digests),
        "cache_stats": registry.snapshot().get("match_cache"),
    }


def bench_membership_plane(
    arity: int, depth: int, seed: int, rounds: int = 32
) -> Dict[str, Any]:
    """Pure §2.3 background cost: membership + detection, zero events.

    No event is ever published, so every measured cycle is gossip-pull
    anti-entropy, contact recording, and failure detection — the cost
    that every round pays whether or not anything is in flight.  A
    small crash burst after a warmup drives the detection machinery end
    to end (suspicion, quorum accusation, exclusion).

    The digest folds in the crash victims' exclusion rounds, the final
    live size, and the membership-plane counters (pulls, exclusions,
    suspicion reports, accusations, convictions, exchanges, synced
    exchanges, lines updated): a caching change that alters *any*
    observable membership behavior — not just wall-clock — breaks the
    digest against a recorded baseline.
    """
    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.25, derive_rng(seed, "perf-interests")
    )
    config = PmcastConfig(fanout=3, redundancy=3, min_rounds_per_depth=2)
    registry = MetricsRegistry()
    started = time.perf_counter()
    runtime = _build_runtime(
        members, config, SimConfig(seed=seed), registry
    )
    build_seconds = time.perf_counter() - started

    warmup = max(2, rounds // 8)
    victims = [addresses[1], addresses[len(addresses) // 2], addresses[-2]]
    started = time.perf_counter()
    runtime.run(warmup)
    for victim in victims:
        runtime.crash(victim)
    runtime.run(rounds - warmup)
    seconds = time.perf_counter() - started

    snapshot = registry.snapshot()
    membership = snapshot.get("membership", {})
    detector = snapshot.get("detector", {})
    gossip = snapshot.get("gossip_pull", {})
    exclusions = {
        str(victim): runtime.exclusion_round(victim) for victim in victims
    }
    # Counters default to 0: a counter nobody incremented may simply
    # not exist in the snapshot, and whether a driver pre-registers it
    # is an implementation detail the digest must not observe.
    counter_lines = [
        f"pulls={membership.get('pulls', 0)}",
        f"exclusions={membership.get('exclusions', 0)}",
        f"suspicion_reports={detector.get('suspicion_reports', 0)}",
        f"accusations={detector.get('accusations', 0)}",
        f"convictions={detector.get('convictions', 0)}",
        f"exchanges={gossip.get('exchanges', 0)}",
        f"synced_exchanges={gossip.get('synced_exchanges', 0)}",
        f"lines_updated={gossip.get('lines_updated', 0)}",
    ]
    return {
        "members": len(addresses),
        "build_seconds": round(build_seconds, 4),
        "seconds": round(seconds, 4),
        "rounds": rounds,
        "rounds_per_second": round(rounds / seconds, 2) if seconds else None,
        "crashed": len(victims),
        "exclusion_rounds": exclusions,
        "final_size": runtime.size,
        "pulls": membership.get("pulls"),
        "synced_exchange_rate": round(
            gossip.get("synced_exchanges", 0) / gossip.get("exchanges", 1), 4
        )
        if gossip.get("exchanges")
        else None,
        "membership_cost": {
            key: value
            for key, value in sorted(membership.items())
            if isinstance(value, (int, float))
        },
        "digest": _sha1(
            [f"{k}={exclusions[k]}" for k in sorted(exclusions)]
            + [str(runtime.size)]
            + counter_lines
        ),
    }


def bench_sweep(
    arity: int, depth: int, seed: int, jobs: Any = "auto"
) -> Dict[str, Any]:
    """Serial vs parallel reliability sweep: the ``--jobs`` dispatch path.

    Runs the same :func:`~repro.bench.figures.reliability_sweep` twice —
    once on the in-process serial executor, once on a ``jobs``-worker
    process pool — and reports both wall-clocks, the speedup, and
    whether the row lists are **identical** (they must be: the
    executor's determinism contract, see docs/VALIDATION.md).  The
    trial count scales inversely with group size so the workload stays
    a few seconds of serial work at any scale — enough to amortise
    pool start-up, small enough for CI.
    """
    from repro.bench.figures import reliability_sweep
    from repro.par import TrialExecutor, resolve_jobs

    jobs = resolve_jobs(jobs)
    members = arity ** depth
    # Inverse-scale trials toward a few seconds of serial work, capped:
    # per-trial cost has a floor, so tiny test groups would otherwise
    # explode into thousands of trials.
    trials = max(4, min(160, 16000 // members))
    kwargs: Dict[str, Any] = {
        "matching_rates": (0.1, 0.35, 0.7),
        "arity": arity,
        "depth": depth,
        "redundancy": 3,
        "fanout": 2,
        "trials": trials,
        "seed": seed,
        "loss_probability": 0.05,
        "crash_fraction": 0.02,
    }
    started = time.perf_counter()
    with TrialExecutor(jobs=1) as serial:
        serial_rows = reliability_sweep(executor=serial, **kwargs)
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    with TrialExecutor(jobs=jobs) as pool:
        parallel_rows = reliability_sweep(executor=pool, **kwargs)
    parallel_seconds = time.perf_counter() - started
    return {
        "members": members,
        "trials_total": trials * len(kwargs["matching_rates"]),
        "jobs": jobs,
        "seconds": round(serial_seconds, 4),
        "seconds_serial": round(serial_seconds, 4),
        "seconds_parallel": round(parallel_seconds, 4),
        "speedup_parallel": round(serial_seconds / parallel_seconds, 2)
        if parallel_seconds
        else None,
        "identical_results": parallel_rows == serial_rows,
        "digest": _sha1(
            [json.dumps(row, sort_keys=True) for row in serial_rows]
        ),
    }


def bench_scale_loop(
    arity: int, depth: int, seed: int,
    timeline: Optional[TimelineRecorder] = None,
    scale_trace: Optional[str] = None,
) -> Dict[str, Any]:
    """Million-member scaling of the vectorized round loop.

    Two measurements back the two claims of the struct-of-arrays path:

    1. **Bit-identity at the bench scale** — the same dissemination as
       ``engine`` is run twice on fresh groups, scalar vs.
       ``vectorized=True``; the outcome digests must match
       (``digest_identical``) and the ratio of the wall-clocks is
       ``speedup_vectorized``.
    2. **Scale trajectory** — the sharded numpy kernel
       (:func:`repro.par.subtree.run_sharded_dissemination`) runs a
       full dissemination at a ladder of sizes up to 100³ = 10⁶
       members (CI scale uses a reduced ladder), reporting wall-clock,
       rounds/sec, delivery ratio, completion, and peak RSS per point.
       ``speedup_sharded`` compares the ladder's first point (the bench
       scale) against the scalar engine.

    ``timeline`` adds per-wave ``fan_out``/``exchange`` spans to the
    ladder runs.  ``scale_trace`` additionally re-runs the *largest*
    ladder point with sampled tracing on (rate ≈ 20 000 sampling keys
    per kind, exact below that size), merges the per-shard files into
    ``scale_trace``, and cross-checks the trace-derived delivery-ratio
    estimate against the run's own report — the end-to-end proof that
    sampled observability works at 10⁶ members.
    """
    from repro.par.subtree import build_regular_spec, run_sharded_dissemination
    from repro.sim.engine import run_dissemination
    from repro.sim.group import PmcastGroup

    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.25, derive_rng(seed, "perf-interests")
    )
    config = PmcastConfig(fanout=3, redundancy=3)
    event = Event({"perf": 1}, event_id=7)

    def engine_run(vectorized: bool):
        group = PmcastGroup.build(members, config)
        started = time.perf_counter()
        report = run_dissemination(
            group,
            addresses[0],
            event,
            SimConfig(seed=seed, vectorized=vectorized),
        )
        return time.perf_counter() - started, report

    scalar_seconds, scalar_report = engine_run(False)
    vector_seconds, vector_report = engine_run(True)
    scalar_digest = _report_digest(scalar_report)
    vector_digest = _report_digest(vector_report)

    paper_members = PAPER_SCALE["arity"] ** PAPER_SCALE["depth"]
    if arity ** depth >= paper_members:
        ladder = [(arity, depth), (47, 3), (100, 3)]
    else:
        ladder = [(arity, depth), (11, 3), (22, 3)]
    seen = set()
    points: List[Dict[str, Any]] = []
    largest: Optional[Dict[str, int]] = None
    for point_arity, point_depth in ladder:
        size = point_arity ** point_depth
        if size in seen:
            continue
        seen.add(size)
        if largest is None or size > largest["size"]:
            largest = {
                "arity": point_arity, "depth": point_depth, "size": size
            }
        started = time.perf_counter()
        spec = build_regular_spec(
            point_arity,
            point_depth,
            0.25,
            config=config,
            sim_config=SimConfig(seed=seed, max_rounds=96),
            event_id=event.event_id,
        )
        build_seconds = time.perf_counter() - started
        started = time.perf_counter()
        report = run_sharded_dissemination(spec, timeline=timeline)
        seconds = time.perf_counter() - started
        points.append(
            {
                "members": size,
                "build_seconds": round(build_seconds, 4),
                "seconds": round(seconds, 4),
                "rounds": report.rounds,
                "rounds_per_second": round(report.rounds / seconds, 2)
                if seconds
                else None,
                "delivery_ratio": round(report.delivery_ratio, 4),
                "completed": report.rounds < spec.max_rounds,
                "rss_kb": _current_rss_kb(),
                "peak_rss_kb": _peak_rss_kb(),
            }
        )
    sharded_seconds = points[0]["seconds"] if points else None
    result = {
        "members": len(addresses),
        "seconds": round(vector_seconds, 4),
        "seconds_scalar": round(scalar_seconds, 4),
        "rounds": vector_report.rounds,
        "digest": vector_digest,
        "digest_identical": scalar_digest == vector_digest,
        "speedup_vectorized": round(scalar_seconds / vector_seconds, 2)
        if vector_seconds
        else None,
        "speedup_sharded": round(scalar_seconds / sharded_seconds, 2)
        if sharded_seconds
        else None,
        "sharded_points": points,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if scale_trace is not None and largest is not None:
        result["trace"] = _traced_scale_point(
            largest["arity"],
            largest["depth"],
            seed,
            config,
            event.event_id,
            scale_trace,
            timeline=timeline,
        )
    return result


def _traced_scale_point(
    arity: int,
    depth: int,
    seed: int,
    config: PmcastConfig,
    event_id: int,
    out_path: str,
    timeline: Optional[TimelineRecorder] = None,
) -> Dict[str, Any]:
    """Re-run one sharded ladder point with sampled tracing on.

    The sampling rate targets ~20 000 kept sampling keys per record
    kind (exact, rate 1.0, below that size); the per-shard files are
    merged into ``out_path`` and the trace-derived delivery-ratio
    estimate is cross-checked against the run's own report.  The
    tolerance is statistical: the estimator's relative standard error
    at that key budget stays under a percent, so 0.05 only trips on a
    real disagreement between the trace and the report.
    """
    from repro.obs.cli import summarize_trace
    from repro.obs.sink import merge_traces
    from repro.par.subtree import (
        build_regular_spec,
        run_sharded_dissemination,
        shard_trace_path,
    )

    size = arity ** depth
    rate = min(1.0, 20000.0 / size)
    spec = build_regular_spec(
        arity,
        depth,
        0.25,
        config=config,
        sim_config=SimConfig(seed=seed, max_rounds=96),
        event_id=event_id,
        trace_rate=rate,
    )
    trace_dir = tempfile.mkdtemp(prefix="repro-scale-trace-")
    try:
        started = time.perf_counter()
        report = run_sharded_dissemination(
            spec, trace_dir=trace_dir, timeline=timeline
        )
        seconds = time.perf_counter() - started
        shards = [
            shard_trace_path(trace_dir, shard)
            for shard in range(spec.num_shards)
        ]
        records = merge_traces(shards, out_path)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    entry = summarize_trace(out_path)["events"][str(event_id)]
    estimate = entry["delivery_ratio"]
    return {
        "path": out_path,
        "members": size,
        "sampling_rate": rate,
        "records": records,
        "seconds": round(seconds, 4),
        "rounds": report.rounds,
        "delivery_ratio_report": round(report.delivery_ratio, 4),
        "delivery_ratio_estimate": round(estimate, 4),
        "estimate_within_tolerance": abs(
            estimate - report.delivery_ratio
        )
        <= 0.05,
    }


#: The (ε, τ) grid the variant comparison sweeps (the validate
#: harness's quick grid, so bench rows and conformance bands line up).
VARIANT_GRID = ((0.0, 0.0), (0.05, 0.0), (0.1, 0.05))


def bench_variant_compare(
    arity: int, depth: int, seed: int
) -> Dict[str, Any]:
    """pmcast vs the dissemination-variant ablations across (ε, τ).

    One dissemination per algorithm per grid point — pmcast (the tree
    engine), pure flat push, lazy push-then-pull, and bounded-view
    gossip — all over the same member population and master seed.  The
    sweep table reports delivery probability, false-reception ratio,
    total and control message counts, and per-event message cost
    (:attr:`~repro.sim.metrics.DisseminationReport.cost_per_delivery`)
    per row; ``lazy_beats_pmcast_points`` counts the grid points where
    lazy pull delivers at least pmcast's ratio on strictly fewer
    messages (the PR's acceptance claim — CI asserts it is >= 1).  The
    digest folds in every row, so *any* behavior change in a variant —
    not just timing — breaks baseline comparison.
    """
    from repro.baselines.flat import flat_gossip_broadcast
    from repro.sim.engine import run_dissemination
    from repro.sim.group import PmcastGroup
    from repro.variants.bounded_view import bounded_view_broadcast
    from repro.variants.lazy_pull import lazy_pull_broadcast

    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.25, derive_rng(seed, "perf-interests")
    )
    config = PmcastConfig(fanout=3, redundancy=3)
    publisher = addresses[0]
    fanout = 3

    def row(algorithm: str, eps: float, tau: float, report) -> Dict[str, Any]:
        return {
            "algorithm": algorithm,
            "eps": eps,
            "tau": tau,
            "delivery_ratio": round(report.delivery_ratio, 4),
            "false_reception_ratio": round(
                report.false_reception_ratio, 4
            ),
            "messages_sent": report.messages_sent,
            "control_messages": report.control_messages,
            "cost_per_delivery": round(report.cost_per_delivery, 2),
            "rounds": report.rounds,
        }

    rows: List[Dict[str, Any]] = []
    lazy_beats_pmcast = 0
    started = time.perf_counter()
    for eps, tau in VARIANT_GRID:
        event = Event({"perf": 1}, event_id=7)
        sim = SimConfig(
            seed=seed, loss_probability=eps, crash_fraction=tau
        )
        # Node state mutates during a run: pmcast needs a fresh group
        # per grid point.
        group = PmcastGroup.build(members, config)
        pmcast = run_dissemination(group, publisher, event, sim)
        push = flat_gossip_broadcast(
            members, publisher, event, fanout, sim_config=sim
        )
        lazy = lazy_pull_broadcast(
            members,
            publisher,
            event,
            fanout,
            sim_config=sim,
            infection_threshold=0.5,
            pull_fanout=2,
            retry_budget=8,
        )
        bounded = bounded_view_broadcast(
            members,
            publisher,
            event,
            fanout,
            sim_config=sim,
            view_size=8,
            shuffle_size=2,
        )
        rows.append(row("pmcast", eps, tau, pmcast))
        rows.append(row("flat_push", eps, tau, push))
        rows.append(row("lazy_pull", eps, tau, lazy))
        rows.append(row("bounded_view", eps, tau, bounded))
        if (
            lazy.delivery_ratio >= pmcast.delivery_ratio
            and lazy.messages_sent < pmcast.messages_sent
        ):
            lazy_beats_pmcast += 1
    seconds = time.perf_counter() - started
    return {
        "members": len(addresses),
        "seconds": round(seconds, 4),
        "grid_points": len(VARIANT_GRID),
        "lazy_beats_pmcast_points": lazy_beats_pmcast,
        "sweep_table": rows,
        "digest": _sha1(
            [json.dumps(entry, sort_keys=True) for entry in rows]
        ),
    }


def bench_net_throughput(
    arity: int, depth: int, seed: int
) -> Dict[str, Any]:
    """Sustained event rate of the live-UDP plane (``repro.net.udp``).

    Disseminates one event through at least 1000 real UDP processes on
    localhost (the suite scale is floored up to 10^3 when smaller) and
    reports protocol events per wall-clock second — timer fires, sends
    and drained receptions.  Opt-in (``--bench net_throughput``): it
    binds a socket per member, which sandboxed builders may forbid.

    Kernel scheduling makes UDP *outcomes* nondeterministic, so the
    ``digest`` here covers the static scenario spec only — the regress
    gate compares wall-clock seconds, and a digest flap would be pure
    noise.
    """
    from repro.net.udp import run_udp_dissemination
    from repro.sim.group import PmcastGroup

    if arity ** depth < 1000:
        arity, depth = 10, 3
    rate, fanout, redundancy, period_s = 0.25, 3, 3, 0.02
    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, rate, derive_rng(seed, "perf-interests")
    )
    config = PmcastConfig(fanout=fanout, redundancy=redundancy)
    started = time.perf_counter()
    group = PmcastGroup.build(members, config)
    build_seconds = time.perf_counter() - started

    report, stats = run_udp_dissemination(
        group,
        addresses[0],
        Event({"perf": 1}, event_id=7),
        seed=seed,
        period_s=period_s,
        hard_timeout_s=60.0,
    )
    return {
        "members": len(addresses),
        "build_seconds": round(build_seconds, 4),
        "seconds": round(stats.elapsed_seconds, 4),
        "completed": stats.completed,
        "events": stats.events,
        "events_per_sec": round(stats.events_per_sec, 1),
        "timer_fires": stats.timer_fires,
        "messages_sent": stats.messages_sent,
        "receptions": stats.receptions,
        "delivery_ratio": round(
            report.delivered_interested / max(report.interested, 1), 4
        ),
        "digest": _sha1(
            [
                "net_throughput",
                str(len(addresses)),
                str(seed),
                str(rate),
                str(fanout),
                str(redundancy),
                str(period_s),
            ]
        ),
    }


_BENCHES = {
    "round_loop": bench_round_loop,
    "faulted_round_loop": bench_faulted_round_loop,
    "engine": bench_engine,
    "churn_refresh": bench_churn_refresh,
    "match_cache": bench_match_cache,
    "membership_plane": bench_membership_plane,
    "sweep": bench_sweep,
    "scale_loop": bench_scale_loop,
    "variant_compare": bench_variant_compare,
    "net_throughput": bench_net_throughput,
}

#: Benchmarks excluded from the default selection (opt in via --bench
#: or the --faults shorthand): the faulted loop exists to be compared
#: against round_loop, not to gate every run, and the UDP throughput
#: bench binds a thousand localhost sockets, which not every
#: environment allows.
_OPT_IN = ("faulted_round_loop", "net_throughput")


def run_suite(
    arity: int,
    depth: int,
    seed: int = 0,
    benches: Optional[Sequence[str]] = None,
    jobs: Any = "auto",
    timeline_path: Optional[str] = None,
    scale_trace: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the selected benchmarks and return the report structure.

    ``jobs`` is the worker count for the ``sweep`` benchmark's parallel
    leg (other benchmarks are single-process by nature).
    ``timeline_path`` writes one ``repro.obs.timeline/v1`` JSONL file
    spanning the whole suite (``round_loop`` and ``scale_loop`` open
    per-round phase spans on it); ``scale_trace`` makes ``scale_loop``
    re-run its largest ladder point with sampled tracing and merge the
    shard traces there (see :func:`_traced_scale_point`).
    """
    selected = (
        list(benches)
        if benches
        else [name for name in _BENCHES if name not in _OPT_IN]
    )
    timeline = (
        TimelineRecorder(
            meta={
                "producer": "repro.bench.perf",
                "arity": arity,
                "depth": depth,
                "members": arity ** depth,
                "seed": seed,
            }
        )
        if timeline_path is not None
        else None
    )
    current: Dict[str, Any] = {}
    for name in selected:
        if name == "sweep":
            current[name] = bench_sweep(arity, depth, seed, jobs=jobs)
        elif name == "round_loop":
            current[name] = bench_round_loop(
                arity, depth, seed, timeline=timeline
            )
        elif name == "scale_loop":
            current[name] = bench_scale_loop(
                arity,
                depth,
                seed,
                timeline=timeline,
                scale_trace=scale_trace,
            )
        else:
            current[name] = _BENCHES[name](arity, depth, seed)
    timeline_entries: Optional[int] = None
    if timeline is not None:
        timeline.probe_memory(subsystem="bench")
        timeline_entries = timeline.to_jsonl(timeline_path)
        timeline.close()
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "config": {
            "arity": arity,
            "depth": depth,
            "members": arity ** depth,
            "seed": seed,
        },
        "environment": _environment(
            artifacts={
                "timeline": timeline_path,
                "timeline_entries": timeline_entries,
                "scale_trace": scale_trace,
            }
        ),
        "results": {"current": current},
    }
    return report


def _git_commit() -> Optional[str]:
    """The repository HEAD commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else None


def _environment(
    artifacts: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The report's environment block, captured at the end of the run
    so ``peak_rss_kb`` covers the whole suite.  ``git_commit`` pins the
    code the numbers came from; ``artifacts`` records the side files
    (timeline, merged scale trace) written alongside the report."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a baked-in dep
        numpy_version = None
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "peak_rss_kb": _peak_rss_kb(),
        "git_commit": _git_commit(),
    }
    if artifacts:
        recorded = {
            key: value for key, value in artifacts.items() if value is not None
        }
        if recorded:
            env["artifacts"] = recorded
    return env


def emit_trace(path: str, arity: int, depth: int, seed: int = 0) -> int:
    """Write a JSONL trace of one quick engine dissemination.

    The trace carries the engine's report-reproducing metadata, so
    ``python -m repro.obs validate``/``summarize`` can check the bench
    environment end to end.  Returns the number of records written.
    """
    from repro.sim.engine import run_dissemination
    from repro.sim.group import PmcastGroup

    space = AddressSpace.regular(arity, depth)
    addresses = space.enumerate_regular(arity)
    members = bernoulli_interests(
        addresses, 0.25, derive_rng(seed, "perf-interests")
    )
    group = PmcastGroup.build(members, PmcastConfig(fanout=3, redundancy=3))
    trace = TraceLog()
    run_dissemination(
        group,
        addresses[0],
        Event({"perf": 1}, event_id=7),
        SimConfig(seed=seed),
        trace=trace,
    )
    trace.annotate(producer="repro.bench.perf")
    trace.to_jsonl(path)
    return len(trace)


def _merge_baseline(report: Dict[str, Any], baseline: Dict[str, Any]) -> None:
    """Attach a previously captured run and compute speedups."""
    report["baseline"] = {
        "config": baseline.get("config"),
        "environment": baseline.get("environment"),
        "results": baseline.get("results"),
    }
    if baseline.get("note") is not None:
        report["baseline"]["note"] = baseline["note"]
    speedups: Dict[str, Any] = {}
    base_results = (baseline.get("results") or {}).get("current", {})
    current_results = report.get("results", {}).get("current", {})
    for name, base in base_results.items():
        now = current_results.get(name)
        if not now:
            continue
        entry: Dict[str, Any] = {}
        for key in ("seconds", "build_seconds"):
            before = base.get(key)
            after = now.get(key)
            if before and after:
                entry[key.replace("seconds", "speedup")] = round(
                    before / after, 2
                )
        before_digest = base.get("digest")
        if before_digest is not None:
            entry["identical_results"] = before_digest == now.get("digest")
        speedups[name] = entry
    report["speedup_vs_baseline"] = speedups


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf",
        description="Hot-path microbenchmarks (round loop, match cache, "
        "churn refresh) with JSON output.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI scale ({QUICK_SCALE['arity']}^{QUICK_SCALE['depth']} "
        "members) instead of paper scale",
    )
    parser.add_argument("--arity", type=int, default=None)
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument(
        "--members",
        type=int,
        default=None,
        help="size preset: derive the arity as round(N^(1/depth)) "
        "(e.g. --members 1000000 with the default depth 3 -> 100^3); "
        "an explicit --arity still wins",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--bench",
        action="append",
        choices=sorted(_BENCHES),
        help="benchmark to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="also run the faulted_round_loop scenario (round loop "
        "under a standard FaultPlan, for fault-plane overhead)",
    )
    parser.add_argument(
        "--jobs",
        default="auto",
        metavar="N|auto",
        help="worker count for the sweep benchmark's parallel leg "
        "(default auto = usable CPUs)",
    )
    parser.add_argument(
        "--baseline",
        type=str,
        default=None,
        help="JSON report from a previous run to compute speedups against",
    )
    parser.add_argument(
        "--output",
        type=str,
        default="BENCH_PR1.json",
        help="output JSON path (default BENCH_PR1.json)",
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        help="also write a JSONL trace of a quick engine run "
        "(validate with `python -m repro.obs validate FILE`)",
    )
    parser.add_argument(
        "--timeline",
        type=str,
        default=None,
        metavar="FILE",
        help="write a repro.obs.timeline/v1 JSONL of wall-clock phase "
        "spans (round_loop + scale_loop) covering the suite "
        "(.gz compresses)",
    )
    parser.add_argument(
        "--scale-trace",
        type=str,
        default=None,
        metavar="FILE",
        help="re-run scale_loop's largest ladder point with sampled "
        "tracing and merge the shard traces here; the report records "
        "the trace-derived delivery-ratio cross-check",
    )
    parser.add_argument(
        "--profile",
        type=str,
        default=None,
        metavar="FILE",
        help="run the suite under cProfile and write the top-30 "
        "functions (by cumulative and by internal time) to FILE; "
        "wall-clock numbers in the JSON report are inflated by "
        "profiling overhead and must not be compared against "
        "unprofiled baselines",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    scale = dict(QUICK_SCALE if args.quick else PAPER_SCALE)
    if args.depth is not None:
        scale["depth"] = args.depth
    if args.members is not None:
        scale["arity"] = max(
            2, round(args.members ** (1.0 / scale["depth"]))
        )
    if args.arity is not None:
        scale["arity"] = args.arity
    baseline = None
    if args.baseline:
        # Read before the (possibly long) benchmark run: a bad path
        # should fail in milliseconds, not after the suite.
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}")
            return 2
    benches = args.bench
    if args.faults:
        benches = list(
            benches
            if benches
            else (n for n in _BENCHES if n not in _OPT_IN)
        )
        if "faulted_round_loop" not in benches:
            benches.append("faulted_round_loop")
    if args.profile:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        report = run_suite(
            scale["arity"],
            scale["depth"],
            seed=args.seed,
            benches=benches,
            jobs=args.jobs,
            timeline_path=args.timeline,
            scale_trace=args.scale_trace,
        )
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        for sort_key in ("cumulative", "tottime"):
            stats.sort_stats(sort_key).print_stats(30)
        with open(args.profile, "w", encoding="utf-8") as handle:
            handle.write(buffer.getvalue())
        report["profiled"] = True
        print(f"wrote cProfile top-30 to {args.profile}")
    else:
        report = run_suite(
            scale["arity"],
            scale["depth"],
            seed=args.seed,
            benches=benches,
            jobs=args.jobs,
            timeline_path=args.timeline,
            scale_trace=args.scale_trace,
        )
    if baseline is not None:
        _merge_baseline(report, baseline)
    if args.trace:
        records = emit_trace(
            args.trace, scale["arity"], scale["depth"], seed=args.seed
        )
        print(f"wrote {records} trace records to {args.trace}")
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    summary = report.get("speedup_vs_baseline") or {}
    for name, entry in summary.items():
        print(f"{name}: speedup={entry.get('speedup')} "
              f"identical={entry.get('identical_results')}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
