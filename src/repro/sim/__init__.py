"""Round-synchronous simulation of pmcast groups (§4.1, §5).

Build a :class:`PmcastGroup` over an interest assignment from
:mod:`~repro.sim.workload`, then measure a dissemination with
:func:`run_dissemination` under a :class:`LossyNetwork` and a
:class:`CrashSchedule`.
"""

from repro.obs.trace import TraceLog, TraceRecord
from repro.sim.churn import ChurnEvent, ChurnSchedule, poisson_churn, run_with_churn
from repro.sim.crashes import CrashSchedule
from repro.sim.engine import run_dissemination
from repro.sim.group import PmcastGroup
from repro.sim.metrics import DisseminationReport, ReportSummary, summarize_reports
from repro.sim.network import LossyNetwork
from repro.sim.rng import derive_rng, derive_seed
from repro.sim.runtime import GroupRuntime
from repro.sim.vector import (
    RegularTreeSpec,
    ShardState,
    VectorUnsupported,
    run_shard_wave,
    try_run_vectorized,
)
from repro.sim.workload import (
    bernoulli_interests,
    clustered_interests,
    exact_count_interests,
    random_event,
    random_subscriptions,
)

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "poisson_churn",
    "run_with_churn",
    "CrashSchedule",
    "run_dissemination",
    "PmcastGroup",
    "DisseminationReport",
    "ReportSummary",
    "summarize_reports",
    "LossyNetwork",
    "GroupRuntime",
    "TraceLog",
    "TraceRecord",
    "RegularTreeSpec",
    "ShardState",
    "VectorUnsupported",
    "run_shard_wave",
    "try_run_vectorized",
    "derive_rng",
    "derive_seed",
    "bernoulli_interests",
    "clustered_interests",
    "exact_count_interests",
    "random_event",
    "random_subscriptions",
]
