"""The scheduler seam: *when* each process's gossip timer fires.

The round-synchronous engine hard-wires "every process fires once per
round, in active-set order".  This module extracts that policy into a
:class:`Schedule` value object shared by both execution styles:

* the event-driven runtime (:mod:`repro.net.runtime`) asks
  :meth:`Schedule.next_fire` for the absolute virtual time of a
  process's next timer;
* the round loop (:class:`repro.sim.runtime.GroupRuntime` with a
  ``schedule=`` argument) asks :meth:`Schedule.fires_in_round` how many
  gossip steps a process takes in a given round — 0 models a straggler
  skipping the round, 2 a timer drifting forward past a boundary.

Determinism rules (docs/NETWORK.md): a schedule must be a *pure
function* of ``(seed, key, fire_index)``.  No RNG stream is drawn —
perturbing the simulation's RNG draw order would break bit-identity
with the engine — and no ``hash()`` of interned objects is consulted,
so verdicts survive ``PYTHONHASHSEED`` changes and worker counts.
Jitter comes from SHA-256, exactly like :mod:`repro.obs.sampling`.

Time is integer virtual microseconds.  Process ``key`` is any stable
string — the runtimes use the dotted address — and fire indexes are
1-based: with zero jitter, fire ``k`` lands exactly at ``k * period``,
i.e. in round ``k`` of the engine's calendar (round ``r`` spans
``[r*P, (r+1)*P)``).
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from typing import Tuple

from repro.errors import NetError

__all__ = [
    "DEFAULT_PERIOD_US",
    "Schedule",
    "RoundSchedule",
    "JitteredSchedule",
    "StragglerSchedule",
]

#: One engine round = one protocol period.  100 ms mirrors
#: ``PmcastConfig.period_ms``'s default.
DEFAULT_PERIOD_US = 100_000

_SCALE = 2 ** 64


def _unit_hash(*parts: object) -> float:
    """A deterministic uniform draw in [0, 1) keyed by ``parts``."""
    key = "|".join(str(part) for part in parts).encode("utf-8")
    word = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    return word / _SCALE


class Schedule(ABC):
    """When process ``key``'s gossip timer fires, in virtual time.

    A schedule is ``fire_time(key, k) = k * multiplier(key) * period +
    offset(key, k)`` with ``offset`` bounded below one straggler-free
    period span; subclasses choose the multiplier and offset laws.
    """

    def __init__(self, period_us: int = DEFAULT_PERIOD_US):
        if period_us < 1:
            raise NetError(f"period_us {period_us} must be >= 1")
        self.period_us = int(period_us)

    @abstractmethod
    def offset_us(self, key: str, fire_index: int) -> int:
        """The jitter added to fire ``fire_index``'s nominal time."""

    @abstractmethod
    def period_multiplier(self, key: str) -> int:
        """The per-process period stretch (1 = nominal cadence)."""

    @property
    @abstractmethod
    def max_offset_us(self) -> int:
        """An inclusive upper bound on :meth:`offset_us` for any key."""

    @property
    def round_synchronous(self) -> bool:
        """True when every fire lands exactly on its round boundary —
        the mode whose event-driven execution is bit-identical to the
        round loop."""
        return self.max_offset_us == 0

    def fire_time_us(self, key: str, fire_index: int) -> int:
        """Absolute virtual time of ``key``'s ``fire_index``-th fire."""
        if fire_index < 1:
            raise NetError(f"fire_index {fire_index} must be >= 1")
        nominal = fire_index * self.period_multiplier(key) * self.period_us
        return nominal + self.offset_us(key, fire_index)

    def next_fire(self, key: str, after_us: int) -> Tuple[int, int]:
        """The first ``(fire_index, time_us)`` strictly after ``after_us``.

        Used by the event runtime to (re)arm a process's timer: on
        activation at time t, the process fires next at the first
        scheduled instant past t.
        """
        stride = self.period_multiplier(key) * self.period_us
        # Offsets are bounded, so the first candidate index is at most
        # max_offset worth of fires before the nominal crossing.
        start = max(1, (after_us - self.max_offset_us) // stride)
        fire_index = start
        while self.fire_time_us(key, fire_index) <= after_us:
            fire_index += 1
        return fire_index, self.fire_time_us(key, fire_index)

    def fires_in_round(self, key: str, round_index: int) -> int:
        """How many fires land in round ``round_index`` (1-based).

        Round ``r`` spans ``[r * period, (r + 1) * period)``.  With
        zero jitter and multiplier 1 this is exactly 1 for every round
        — the engine's own cadence.  Jitter beyond a period can move a
        fire across a boundary (0 fires then 2); a straggler with
        multiplier m fires only when ``r`` is a multiple of m.
        """
        if round_index < 1:
            raise NetError(f"round_index {round_index} must be >= 1")
        lo = round_index * self.period_us
        hi = lo + self.period_us
        stride = self.period_multiplier(key) * self.period_us
        lead = lo - self.max_offset_us
        first = max(1, -(-lead // stride)) if lead > 0 else 1
        count = 0
        fire_index = first
        while True:
            nominal = fire_index * stride
            if nominal >= hi:
                break
            when = nominal + self.offset_us(key, fire_index)
            if lo <= when < hi:
                count += 1
            fire_index += 1
        return count


class RoundSchedule(Schedule):
    """The engine's own cadence: every process, every period, no jitter."""

    def offset_us(self, key: str, fire_index: int) -> int:
        return 0

    def period_multiplier(self, key: str) -> int:
        return 1

    @property
    def max_offset_us(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"RoundSchedule(period_us={self.period_us})"


class JitteredSchedule(Schedule):
    """Uniform per-fire jitter of up to ``jitter`` periods.

    ``jitter`` is expressed in periods (0.25 = up to a quarter-period
    late).  Each ``(seed, key, fire_index)`` gets an independent
    SHA-256 uniform draw, so the same seed replays the same jitter on
    any machine.  ``jitter=0`` degenerates to :class:`RoundSchedule` —
    the equivalence the property suite pins.
    """

    def __init__(
        self,
        jitter: float,
        seed: int = 0,
        period_us: int = DEFAULT_PERIOD_US,
    ):
        super().__init__(period_us)
        if not (math.isfinite(jitter) and jitter >= 0):
            raise NetError(f"jitter {jitter} must be finite and >= 0")
        self.jitter = float(jitter)
        self.seed = int(seed)
        self._max_offset = int(self.jitter * self.period_us)

    def offset_us(self, key: str, fire_index: int) -> int:
        if self._max_offset == 0:
            return 0
        draw = _unit_hash("jitter", self.seed, key, fire_index)
        return int(draw * self._max_offset)

    def period_multiplier(self, key: str) -> int:
        return 1

    @property
    def max_offset_us(self) -> int:
        return self._max_offset

    def __repr__(self) -> str:
        return (
            f"JitteredSchedule(jitter={self.jitter}, seed={self.seed}, "
            f"period_us={self.period_us})"
        )


class StragglerSchedule(Schedule):
    """A deterministic fraction of processes gossip every ``factor``-th
    period.

    Membership in the straggler set is a pure hash of ``(seed, key)``:
    roughly ``fraction`` of processes get ``period_multiplier ==
    factor``, the rest run at nominal cadence.  ``fraction=0`` (or
    ``factor=1``) degenerates to :class:`RoundSchedule`.
    """

    def __init__(
        self,
        fraction: float,
        factor: int = 2,
        seed: int = 0,
        period_us: int = DEFAULT_PERIOD_US,
    ):
        super().__init__(period_us)
        if not 0.0 <= fraction <= 1.0:
            raise NetError(f"fraction {fraction} not in [0, 1]")
        if factor < 1:
            raise NetError(f"factor {factor} must be >= 1")
        self.fraction = float(fraction)
        self.factor = int(factor)
        self.seed = int(seed)

    def is_straggler(self, key: str) -> bool:
        """Whether ``key`` is in the deterministically sampled slow set."""
        if self.fraction <= 0.0 or self.factor == 1:
            return False
        return _unit_hash("straggler", self.seed, key) < self.fraction

    def offset_us(self, key: str, fire_index: int) -> int:
        return 0

    def period_multiplier(self, key: str) -> int:
        return self.factor if self.is_straggler(key) else 1

    @property
    def max_offset_us(self) -> int:
        return 0

    @property
    def round_synchronous(self) -> bool:
        return self.fraction <= 0.0 or self.factor == 1

    def __repr__(self) -> str:
        return (
            f"StragglerSchedule(fraction={self.fraction}, "
            f"factor={self.factor}, seed={self.seed}, "
            f"period_us={self.period_us})"
        )
