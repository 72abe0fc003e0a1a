"""Fair-loss transports: the seam between protocol logic and the wire.

The paper's model assumes *fair-loss* point-to-point links: a message
is delivered at most once, is never fabricated, and is dropped
independently with probability ε.  Both execution styles implement the
same :class:`Transport` contract:

* :class:`SimTransport` — deterministic in-process delivery driven by a
  :class:`~repro.net.clock.VirtualClock`.  Sends are *batched by flush
  instant*: every envelope sent at virtual time t is queued until
  ``t + latency_us`` and then pushed through the seeded
  :class:`~repro.sim.network.LossyNetwork` (and, when installed, the
  :class:`~repro.faults.injector.FaultInjector`) **in send order**.
  Because the round-synchronous engine transmits each round's fan-out
  as one ordered batch, a zero-jitter schedule makes the flush batch
  equal the engine's round batch — same loss draws, in the same RNG
  order, hence bit-identical outcomes (docs/NETWORK.md).  The fault
  injector thus acts at the transport seam, unchanged.
* :class:`FairLossUdpTransport` — real datagrams over an asyncio UDP
  endpoint on localhost.  UDP *is* a fair-loss link; an optional
  software ε adds seeded drops on top so loss-model tests do not
  depend on kernel buffer pressure.  Wire format: one JSON object per
  datagram carrying the Figure 3 tuple (:mod:`repro.core.codec`).

Neither transport ever duplicates or forges an envelope — the property
suite (tests/net/test_properties.py) pins ``delivered ⊆ sent`` and
exactly-once handoff per sent envelope.
"""

from __future__ import annotations

import asyncio
import json
import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple

from repro.addressing import Address
from repro.core.codec import decode_message, encode_message
from repro.core.messages import Envelope
from repro.errors import NetError
from repro.net.clock import PRIORITY_FLUSH, VirtualClock
from repro.sim.network import LossyNetwork

__all__ = [
    "Transport",
    "SimTransport",
    "UdpEndpointRegistry",
    "FairLossUdpTransport",
    "encode_envelope",
    "decode_envelope",
]


class Transport(ABC):
    """A fair-loss point-to-point message transport."""

    @abstractmethod
    def send(self, envelope: Envelope) -> None:
        """Queue one envelope for delivery (may be dropped per ε)."""

    @property
    @abstractmethod
    def messages_sent(self) -> int:
        """Envelopes handed to the transport so far."""

    @property
    @abstractmethod
    def messages_lost(self) -> int:
        """Envelopes known dropped (model ε; never kernel losses)."""


class SimTransport(Transport):
    """Deterministic virtual-clock transport over the seeded ε model.

    Args:
        clock: the runtime's virtual clock; flush events are scheduled
            on it with :data:`~repro.net.clock.PRIORITY_FLUSH`.
        network: the seeded loss model — the *only* source of drops.
        latency_us: wire latency; the model requires it strictly below
            the gossip period (everything sent in a round arrives in
            that round), which :func:`repro.variants.base.run_variant`
            validates.
        injector: optional fault injector applied to every flush batch,
            exactly where the round engine applies it.
    """

    def __init__(
        self,
        clock: VirtualClock,
        network: LossyNetwork,
        latency_us: int,
        injector: Optional[object] = None,
    ):
        if latency_us < 1:
            raise NetError(f"latency_us {latency_us} must be >= 1")
        self._clock = clock
        self._network = network
        self._latency_us = int(latency_us)
        self._injector = injector
        self._batches: Dict[int, List[Envelope]] = {}

    @property
    def latency_us(self) -> int:
        """The fixed virtual wire latency."""
        return self._latency_us

    @property
    def in_flight(self) -> bool:
        """Whether any flush batch is still pending on the clock."""
        return bool(self._batches)

    @property
    def messages_sent(self) -> int:
        return self._network.messages_sent

    @property
    def messages_lost(self) -> int:
        return self._network.messages_lost

    def send(self, envelope: Envelope) -> None:
        """Queue ``envelope`` for the flush at ``now + latency``.

        All envelopes sent at one instant share a flush batch, in send
        order — the invariant that keeps loss draws aligned with the
        round engine.
        """
        self.ensure_flush(self._clock.now_us + self._latency_us).append(
            envelope
        )

    def ensure_flush(self, flush_time_us: int) -> List[Envelope]:
        """The (possibly empty) batch flushing at ``flush_time_us``.

        Creating a batch schedules its flush event.  The runtime also
        calls this with no sends pending when the fault injector holds
        delayed envelopes: the engine invokes the injector every round
        even on an empty fan-out, and the empty flush reproduces that.
        """
        batch = self._batches.get(flush_time_us)
        if batch is None:
            batch = self._batches[flush_time_us] = []
            self._clock.schedule(
                flush_time_us, PRIORITY_FLUSH, ("flush", flush_time_us)
            )
        return batch

    def take(self, flush_time_us: int) -> List[Envelope]:
        """Detach and return the batch for a popped flush event."""
        batch = self._batches.pop(flush_time_us, None)
        if batch is None:
            raise NetError(f"no batch pending at t={flush_time_us}us")
        return batch

    def transmit(
        self, batch: List[Envelope], round_index: int
    ) -> List[Envelope]:
        """Push one flush batch through the loss model, in send order.

        ``round_index`` is the 0-based round the batch belongs to —
        the fault injector's scheduling key, matching the engine's
        ``injector.transmit(round_index, ...)`` call.
        """
        if self._injector is None:
            return self._network.transmit(batch)
        return self._injector.transmit(round_index, batch, self._network)


def encode_envelope(envelope: Envelope) -> bytes:
    """One envelope as one UDP datagram payload."""
    return json.dumps(
        {
            "to": str(envelope.destination),
            "msg": encode_message(envelope.message),
        },
        sort_keys=True,
    ).encode("utf-8")


def decode_envelope(data: bytes) -> Envelope:
    """Inverse of :func:`encode_envelope`.

    Raises:
        NetError: on any malformed datagram — a deployment runtime must
            reject garbage off the wire, not crash on it.
    """
    try:
        wire = json.loads(data.decode("utf-8"))
        return Envelope(
            destination=Address.parse(wire["to"]),
            message=decode_message(wire["msg"]),
        )
    except Exception as exc:
        raise NetError(f"malformed datagram: {exc}") from exc


class UdpEndpointRegistry:
    """The shared ``Address -> (host, port)`` resolver for one UDP run.

    Real deployments would resolve through membership metadata; on
    localhost every process registers its ephemeral port here at bind
    time.
    """

    def __init__(self) -> None:
        self._endpoints: Dict[Address, Tuple[str, int]] = {}

    def register(self, address: Address, host: str, port: int) -> None:
        self._endpoints[address] = (host, port)

    def resolve(self, address: Address) -> Tuple[str, int]:
        try:
            return self._endpoints[address]
        except KeyError:
            raise NetError(f"no UDP endpoint registered for {address}")

    def __len__(self) -> int:
        return len(self._endpoints)


class _DatagramBridge(asyncio.DatagramProtocol):
    """Feeds received datagrams to the owning transport's callback."""

    def __init__(self, transport: "FairLossUdpTransport"):
        self._owner = transport

    def datagram_received(self, data: bytes, addr: object) -> None:
        self._owner._on_datagram(data)


class FairLossUdpTransport(Transport):
    """One process's UDP endpoint: real datagrams on localhost.

    Built with :meth:`create` (binds an ephemeral port and registers
    it).  ``on_receive`` is invoked on the event loop for every
    well-formed envelope received; malformed datagrams are counted and
    dropped, never raised into the loop.

    Args:
        loss_probability: software ε applied at *send* with a seeded
            per-transport RNG — deterministic fair-loss injection on
            top of whatever the kernel does.
    """

    def __init__(
        self,
        address: Address,
        registry: UdpEndpointRegistry,
        on_receive: Callable[[Envelope], None],
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if not 0.0 <= loss_probability < 1.0:
            raise NetError(
                f"loss probability {loss_probability} not in [0, 1)"
            )
        self.address = address
        self._registry = registry
        self._on_receive = on_receive
        self._loss_probability = loss_probability
        self._rng = rng or random.Random(0)
        self._endpoint: Optional[asyncio.DatagramTransport] = None
        self._sent = 0
        self._lost = 0
        self._received = 0
        self._malformed = 0

    @classmethod
    async def create(
        cls,
        address: Address,
        registry: UdpEndpointRegistry,
        on_receive: Callable[[Envelope], None],
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        host: str = "127.0.0.1",
    ) -> "FairLossUdpTransport":
        """Bind an ephemeral UDP port and register it."""
        transport = cls(address, registry, on_receive, loss_probability, rng)
        loop = asyncio.get_running_loop()
        endpoint, _protocol = await loop.create_datagram_endpoint(
            lambda: _DatagramBridge(transport), local_addr=(host, 0)
        )
        transport._endpoint = endpoint
        sock_host, sock_port = endpoint.get_extra_info("sockname")[:2]
        registry.register(address, sock_host, sock_port)
        return transport

    @property
    def messages_sent(self) -> int:
        return self._sent

    @property
    def messages_lost(self) -> int:
        return self._lost

    @property
    def messages_received(self) -> int:
        """Well-formed envelopes handed to ``on_receive``."""
        return self._received

    @property
    def malformed_datagrams(self) -> int:
        """Datagrams that failed to decode (counted, then dropped)."""
        return self._malformed

    def send(self, envelope: Envelope) -> None:
        if self._endpoint is None:
            raise NetError(f"transport for {self.address} is not open")
        self._sent += 1
        if (
            self._loss_probability > 0.0
            and self._rng.random() < self._loss_probability
        ):
            self._lost += 1
            return
        self._endpoint.sendto(
            encode_envelope(envelope),
            self._registry.resolve(envelope.destination),
        )

    def _on_datagram(self, data: bytes) -> None:
        try:
            envelope = decode_envelope(data)
        except NetError:
            self._malformed += 1
            return
        self._received += 1
        self._on_receive(envelope)

    def close(self) -> None:
        """Close the endpoint (idempotent)."""
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
