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

:func:`forward_as_event` is a switch's ``on_frame`` as it was while each
switch crossing was two events: the arrival, then the forwarding latency
later an event that handed the frame to its out-port (or flooded it).
The switch now admits the frame at arrival, as of that latency later;
this is the reference it is held to (``tests/test_switch.py``), and the
switch the parent traces ran (``tests/test_seed_stability.py``).
"""

from collections import deque
from typing import Deque

from repro.simnet import switch as switch_module
from repro.simnet.engine import Simulator
from repro.simnet.packet import EthernetFrame
from repro.simnet.switch import (
    _STP_GROUP,
    MAC_AGING,
    MAX_L2_HOPS,
    SWITCH_FORWARD_LATENCY,
    FdbEntry,
)


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


def flood_port_by_port(ports, frame, offset=0.0) -> bool:
    """``repro.simnet.switch._flood`` before a flood's arrivals at one
    instant were one event: each port's ``transmit`` schedules its own.
    True if any port accepted the frame."""
    accepted = [port.transmit(frame, None, offset) for port in ports]
    return any(accepted)


def forward_as_event(self, in_port, frame) -> None:
    """``Switch.on_frame`` while forwarding was an event of its own: the
    out-port's ``transmit``, or the flood, is scheduled the forwarding
    latency after the arrival (the flood looked up in the switch's module
    when the frame arrives, so that a test may put its reference there)."""
    dst = frame.dst._value
    # Bridge-group traffic is consumed here, never forwarded or
    # learned (IEEE 802.1D reserved address) -- even with STP off.
    if dst == _STP_GROUP:
        if self.stp is not None:
            self.stp.receive(in_port, frame)
        return
    # A blocking port drops all data frames, in both directions.
    if not in_port.forwarding:
        self.frames_dropped_blocked += 1
        return
    now = self.sim._now
    src = frame.src
    fdb = self._fdb
    entry = fdb.get(src._value)
    if (
        entry is not None
        and entry.port is in_port
        and now - entry.learned_at <= MAC_AGING
    ):
        entry.learned_at = now  # unchanged and live: refreshed in place
    elif not src.is_multicast:  # group addresses (broadcast too) are no station
        # New, moved, or aged out -- and an expired binding is no
        # binding: fdb_entries() stopped listing it when it aged out,
        # so learning it again changes the row set like the other two.
        fdb[src._value] = FdbEntry(src, in_port, now)
        self.fdb_version += 1
    # In-band management: frames addressed to the switch itself.
    management_mac = self.management_mac
    if management_mac is not None and dst == management_mac._value:
        self.frames_local += 1
        if self._mgmt_handler is not None:
            self._mgmt_handler(in_port, frame)
        return
    if frame.hops >= MAX_L2_HOPS:
        self.frames_dropped_hops += 1
        return
    # Only station addresses are ever learned, so only a unicast
    # destination can be in the FDB; a stale binding ages out here.
    out = None
    if frame.is_unicast:
        bound = fdb.get(dst)
        if bound is not None:
            if now - bound.learned_at > MAC_AGING:
                del fdb[dst]
                self.fdb_version += 1
            else:
                out = bound.port
    if out is not None and out.forwarding:
        if out is in_port:
            return  # destination is back where it came from; filter
        self.frames_forwarded += 1
        self.sim.schedule(SWITCH_FORWARD_LATENCY, out.transmit, frame.hop_copy())
    else:
        self.frames_flooded += 1
        ports = [
            port
            for port in self.interfaces
            if port is not in_port and port.link is not None and port.forwarding
        ]
        if ports:
            self.sim.schedule(
                SWITCH_FORWARD_LATENCY, switch_module._flood, ports, frame.hop_copy()
            )
        # Broadcasts also reach the management plane.
        if frame.is_broadcast and self._mgmt_handler is not None:
            self._mgmt_handler(in_port, frame)
