"""Point-to-point duplex links.

A :class:`Link` joins exactly two interfaces -- the paper's connection
model is strictly 1-to-1 ("one interface may only be connected to one
interface on another host/device").  Each direction is an independent
:class:`_Channel`: frames serialise at the link bandwidth behind a
bounded FIFO queue and arrive after a propagation delay.

Bandwidth defaults to the *minimum* of the two endpoint interface speeds,
which is how a real auto-negotiated Ethernet segment behaves (a 100 Mb/s
NIC plugged into a 10 Mb/s hub runs at 10 Mb/s).

A crossing is one event, the arrival, and one call on each side of it.
FIFO departures follow from the offers alone -- a frame starts when it is
offered or when the one before it ends, whichever is later -- so each is
computed as the frame is accepted: :meth:`repro.simnet.nic.Interface.
transmit` makes the sender's decision (admin state, fault hook, tail-drop,
counters) and the channel's (departure, arrival) in one place, on the
state a :class:`_Channel` holds, and the arrival event is the receiving
interface's ``deliver`` itself.  The last bit leaving the wire changes no
counter (the sender's are charged on acceptance, the receiver's on
arrival) and needs no event; ``tests/link_reference.py`` keeps the
event-per-stage channel this replaced, as the reference.  A queueing
discipline other than FIFO is a different rule for ``start`` there.

A switch's flood crosses several links at once, and its crossings that
end at one instant share one arrival event (:func:`repro.simnet.switch.
_flood`): ``transmit`` hands such an arrival back instead of scheduling
it, and the flood schedules each run of them as one.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from repro.simnet.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.nic import Interface

DEFAULT_QUEUE_BYTES = 262_144  # 256 KiB of buffering per direction
DEFAULT_PROP_DELAY = 5e-6  # ~1 km of copper; negligible vs transmission time


class LinkError(RuntimeError):
    """Raised for wiring mistakes (re-attaching a connected interface...)."""


class _Channel:
    """One direction of a link: the state of its FIFO queue, serialiser
    and propagation, advanced by the transmitting interface."""

    __slots__ = (
        "sim",
        "bandwidth_bps",
        "prop_delay",
        "max_queue_bytes",
        "free_at",
        "waiting",
        "waiting_bytes",
        "dst",
        "frames_dropped",
        "octets_dropped",
        "drop_filter",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        prop_delay: float,
        max_queue_bytes: int,
        dst: "Interface",
    ) -> None:
        self.sim = sim
        # May be assigned mid-run; applies to frames offered afterwards.
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay = prop_delay
        self.max_queue_bytes = max_queue_bytes
        #: When the serialiser next idles (in the past on an idle channel).
        self.free_at = 0.0
        # For admission only: (start of serialisation, size) of accepted
        # frames that may still be waiting for the wire, and their total.
        self.waiting: Deque[Tuple[float, int]] = deque()
        self.waiting_bytes = 0
        self.dst = dst
        self.frames_dropped = 0
        self.octets_dropped = 0
        # Optional fault hook (see repro.simnet.faults.PacketLoss): called
        # per frame; returning True drops it before it enqueues.
        self.drop_filter = None

    @property
    def queue_bytes(self) -> int:
        """Bytes accepted whose serialisation has not started yet."""
        now = self.sim.now
        return sum(size for start, size in self.waiting if start > now)

    @property
    def utilization_estimate(self) -> float:
        """Instantaneous queue occupancy as a fraction of buffer space."""
        return self.queue_bytes / self.max_queue_bytes if self.max_queue_bytes else 0.0


class Link:
    """A duplex physical connection between two interfaces."""

    def __init__(
        self,
        sim: Simulator,
        end_a: "Interface",
        end_b: "Interface",
        bandwidth_bps: Optional[float] = None,
        prop_delay: float = DEFAULT_PROP_DELAY,
        max_queue_bytes: int = DEFAULT_QUEUE_BYTES,
    ) -> None:
        if end_a is end_b:
            raise LinkError("cannot connect an interface to itself")
        if end_a.link is not None:
            raise LinkError(f"interface {end_a.full_name} is already connected")
        if end_b.link is not None:
            raise LinkError(f"interface {end_b.full_name} is already connected")
        if bandwidth_bps is None:
            bandwidth_bps = min(end_a.speed_bps, end_b.speed_bps)
        # A NaN bandwidth would put NaN timestamps on the event heap.
        if not (bandwidth_bps > 0 and math.isfinite(bandwidth_bps)):
            raise LinkError(f"bandwidth must be positive and finite, got {bandwidth_bps!r}")
        self.sim = sim
        self.end_a = end_a
        self.end_b = end_b
        self.bandwidth_bps = float(bandwidth_bps)
        self._a_to_b = _Channel(sim, self.bandwidth_bps, prop_delay, max_queue_bytes, end_b)
        self._b_to_a = _Channel(sim, self.bandwidth_bps, prop_delay, max_queue_bytes, end_a)
        end_a.attach(self)
        end_b.attach(self)

    def channel_from(self, src: "Interface") -> _Channel:
        """The directional channel that carries what ``src`` transmits."""
        if src is self.end_a:
            return self._a_to_b
        if src is self.end_b:
            return self._b_to_a
        raise LinkError(f"{src.full_name} is not an endpoint of this link")

    @property
    def endpoints(self) -> Tuple["Interface", "Interface"]:
        return (self.end_a, self.end_b)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Link {self.end_a.full_name} <-> {self.end_b.full_name} "
            f"{self.bandwidth_bps / 1e6:.0f} Mb/s>"
        )
