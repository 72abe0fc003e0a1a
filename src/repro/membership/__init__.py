"""Membership: the compound spanning tree and its loose coordination.

Implements §2 of the paper: delegate election over hierarchical
addresses (:mod:`tree`), per-depth view tables (:mod:`views`), view
derivation and the Eq 2 / Eq 12 knowledge accounting (:mod:`knowledge`),
gossip-pull anti-entropy (:mod:`gossip_pull`), join/leave protocols
(:mod:`lifecycle`), and last-contact failure detection
(:mod:`failure_detector`).
"""

from repro.membership.failure_detector import FailureDetector, SuspicionQuorum
from repro.membership.gossip_pull import (
    MembershipState,
    anti_entropy_round,
    exchange,
)
from repro.membership.knowledge import (
    build_all_views,
    build_process_views,
    build_view,
    known_process_count,
    refreshed_rows,
    regular_total_view_size,
    regular_view_sizes,
)
from repro.membership.lifecycle import GroupDirectory, JoinResult, join, leave
from repro.membership.tree import MembershipTree
from repro.membership.views import ViewRow, ViewTable

__all__ = [
    "MembershipTree",
    "ViewRow",
    "ViewTable",
    "build_view",
    "refreshed_rows",
    "build_process_views",
    "build_all_views",
    "known_process_count",
    "regular_view_sizes",
    "regular_total_view_size",
    "MembershipState",
    "exchange",
    "anti_entropy_round",
    "GroupDirectory",
    "JoinResult",
    "join",
    "leave",
    "FailureDetector",
    "SuspicionQuorum",
]
