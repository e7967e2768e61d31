"""The event-per-stage channel, kept as the reference for the analytic one.

Until PR 19 one direction of a link was this class: a frame deque, a
``busy`` flag, and two events per crossing -- ``_tx_done`` when the last
bit left the serialiser (it touched no counter and no device: it only
scheduled ``_deliver`` a propagation delay later and started the next
frame) and ``_deliver`` on arrival.  :class:`repro.simnet.link._Channel`
now computes each departure when the frame is offered and schedules the
arrival alone.  The class below is the old one verbatim, so that

- ``tests/test_link.py`` can drive both with one program and require the
  same admissions, the same arrivals to the last bit, the same counters;
- ``tests/test_seed_stability.py`` can run the pinned scenarios on it and
  show what the ordered trace goldens were derived from.

It discovers what the analytic channel computes; where the two could
differ is a tie the old one broke by scheduling order -- an offer at the
very instant the serialiser frees -- and a ``bandwidth_bps`` assigned
while frames wait (read here when a frame starts, there when it is
offered).  Both are pinned by their own tests in ``tests/test_link.py``.

:func:`flood_port_by_port` is a switch's flood as it was while each
port's crossing scheduled its own arrival, the reference for the flood
whose arrivals at one instant are one event (``tests/test_switch.py``),
and the flood the old channel's ``send`` runs under.
"""

from collections import deque
from typing import Deque

from repro.simnet.engine import Simulator
from repro.simnet.packet import EthernetFrame


class _Channel:
    """One direction of a link: FIFO queue + serialiser + propagation."""

    __slots__ = (
        "sim",
        "bandwidth_bps",
        "prop_delay",
        "queue",
        "queue_bytes",
        "max_queue_bytes",
        "busy",
        "dst",
        "frames_delivered",
        "octets_delivered",
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
        dst,
    ) -> None:
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay = prop_delay
        self.queue: Deque[EthernetFrame] = deque()
        self.queue_bytes = 0
        self.max_queue_bytes = max_queue_bytes
        self.busy = False
        self.dst = dst
        self.frames_delivered = 0
        self.octets_delivered = 0
        self.frames_dropped = 0
        self.octets_dropped = 0
        # Optional fault hook (see repro.simnet.faults.PacketLoss): called
        # per frame; returning True drops it before it enqueues.
        self.drop_filter = None

    def send(self, frame: EthernetFrame) -> bool:
        """Accept a frame for transmission; False means tail-drop."""
        size = frame.size
        lost = self.drop_filter is not None and self.drop_filter(frame)
        if lost or self.queue_bytes + size > self.max_queue_bytes:
            self.frames_dropped += 1
            self.octets_dropped += size
            return False
        self.queue.append(frame)
        self.queue_bytes += size
        if not self.busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        frame = self.queue.popleft()
        size = frame.size
        self.queue_bytes -= size
        self.sim.schedule(size * 8.0 / self.bandwidth_bps, self._tx_done, frame)

    def _tx_done(self, frame: EthernetFrame) -> None:
        self.sim.schedule(self.prop_delay, self._deliver, frame)
        self._start_next()

    def _deliver(self, frame: EthernetFrame) -> None:
        self.frames_delivered += 1
        self.octets_delivered += frame.size
        self.dst.deliver(frame)

    @property
    def utilization_estimate(self) -> float:
        """Instantaneous queue occupancy as a fraction of buffer space."""
        return self.queue_bytes / self.max_queue_bytes if self.max_queue_bytes else 0.0


def flood_port_by_port(ports, frame) -> bool:
    """``repro.simnet.switch._flood`` before a flood's arrivals at one
    instant were one event: each port's ``transmit`` schedules its own.
    True if any port accepted the frame."""
    accepted = [port.transmit(frame) for port in ports]
    return any(accepted)
