"""Network interfaces with MIB-II counters.

Every interface maintains exactly the statistics the paper's monitor polls
(Table 1): ``ifSpeed`` (static bandwidth), ``ifInOctets``/``ifOutOctets``
and the unicast/non-unicast packet counters.  Counters are free-running
Python integers; the SNMP layer truncates them to Counter32 on the wire, so
the poller's 2^32 wrap handling is exercised for real.

Counting semantics (a deliberate modelling decision, see DESIGN.md §6):

- Host NICs run non-promiscuous: they count and deliver only frames
  addressed to their own MAC, plus broadcast/multicast.  A frame that a hub
  repeats past an uninterested host is *not* counted.  This matches the
  paper's hub arithmetic ``u = Σ t_j`` where the per-host t_j are disjoint
  and the *monitor* performs the summation.
- Switch and hub ports run promiscuous: a port counts every octet it
  carries, which is what lets the paper monitor hosts S3-S6 that have no
  SNMP daemon "by polling the interfaces on the switch that are connected
  to S4 and S5".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.simnet.address import IPv4Address, MacAddress
from repro.simnet.link import Link, _Channel
from repro.simnet.packet import DEFAULT_MTU, EthernetFrame

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import Simulator

# ifType values from RFC 1213 we care about.
IFTYPE_ETHERNET_CSMACD = 6


class InterfaceError(RuntimeError):
    """Raised for misuse of an interface (transmit while detached...)."""


class InterfaceCounters:
    """The mutable MIB-II statistics block of one interface."""

    __slots__ = (
        "in_octets",
        "out_octets",
        "in_ucast_pkts",
        "out_ucast_pkts",
        "in_nucast_pkts",
        "out_nucast_pkts",
        "in_discards",
        "out_discards",
        "in_filtered_pkts",
    )

    def __init__(self) -> None:
        self.in_octets = 0
        self.out_octets = 0
        self.in_ucast_pkts = 0
        self.out_ucast_pkts = 0
        self.in_nucast_pkts = 0
        self.out_nucast_pkts = 0
        self.in_discards = 0
        self.out_discards = 0
        # Frames seen but MAC-filtered on a non-promiscuous NIC.  Not a
        # MIB-II object; kept for tests and diagnostics.
        self.in_filtered_pkts = 0

    def snapshot(self) -> dict:
        """A plain-dict copy, for tests and reporting."""
        return {name: getattr(self, name) for name in self.__slots__}


class Interface:
    """One network interface (NIC or device port).

    Parameters
    ----------
    device:
        The owning host/switch/hub.  It must expose ``name`` (str) and
        ``on_frame(iface, frame)`` for upward delivery.
    local_name:
        The interface's name unique *within* the device ("eth0", "port3"),
        mirroring the spec language's ``localName``.
    speed_bps:
        Static bandwidth, served as MIB-II ``ifSpeed``.
    promiscuous:
        Devices (switch/hub ports) count and deliver every frame; host
        NICs filter on destination MAC.
    """

    def __init__(
        self,
        device: object,
        local_name: str,
        mac: MacAddress,
        speed_bps: float,
        ip: Optional[IPv4Address] = None,
        mtu: int = DEFAULT_MTU,
        promiscuous: bool = False,
        if_index: int = 0,
    ) -> None:
        if speed_bps <= 0:
            raise InterfaceError(f"non-positive interface speed {speed_bps!r}")
        self.device = device
        self.local_name = local_name
        self.mac = mac
        self.ip = ip
        self.speed_bps = float(speed_bps)
        self.mtu = mtu
        self.promiscuous = promiscuous
        self.if_index = if_index  # 1-based, assigned by the owning device
        self.link: Optional[Link] = None
        self._tx: Optional[_Channel] = None  # this end's transmit direction of ``link``
        self.counters = InterfaceCounters()
        # Per-ToS octet accounting (ToS octet -> octets) of *marked* frames
        # only: best-effort (ToS 0) is the MIB-II octet counter less the sum
        # of these.  Lets experiments separate DSCP-marked probe/class
        # traffic from best-effort workload on the same port.
        self.tos_out_octets: dict[int, int] = {}
        self.tos_in_octets: dict[int, int] = {}
        self.admin_up = True
        # False while a spanning tree holds this (switch) port blocking;
        # a port no tree runs on forwards.  Read by the switch per frame.
        self.forwarding = True
        # Optional tap invoked on every delivered frame (testing/tracing).
        self.rx_tap: Optional[Callable[[EthernetFrame], None]] = None
        # Observers notified with (interface, up: bool) on admin-state
        # changes -- how the SNMP agent learns to emit linkDown/linkUp
        # traps without polling its own kernel.
        self.state_observers: list[Callable[["Interface", bool], None]] = []

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def device_name(self) -> str:
        return getattr(self.device, "name", repr(self.device))

    @property
    def full_name(self) -> str:
        """Globally unique "device.interface" name used in reports."""
        return f"{self.device_name}.{self.local_name}"

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, link: Link) -> None:
        if self.link is not None:
            raise InterfaceError(f"{self.full_name} already attached")
        self.link = link
        self._tx = link.channel_from(self)

    def set_admin_up(self, up: bool) -> None:
        """Change administrative state, notifying observers on transition."""
        if up == self.admin_up:
            return
        self.admin_up = up
        for observer in list(self.state_observers):
            observer(self, up)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def transmit(
        self, frame: EthernetFrame, _arrivals: Optional[list] = None, _offset: float = 0.0
    ) -> bool:
        """Send a frame out this interface.  Returns False on tail-drop.

        Offer and admission in one call: the frame joins this end's
        transmit channel (FIFO behind ``free_at``, see :mod:`repro.simnet.
        link`) and its arrival at the far interface is scheduled.  Octet/
        packet counters are charged on acceptance; tail-dropped frames
        land in ``out_discards`` instead, mirroring how real NIC drivers
        account output drops.

        A switch's flood passes ``_arrivals``: the accepted frame's
        ``(arrival time, far interface)`` is appended to it instead of
        scheduled, and the flood schedules its ports' arrivals itself.
        A switch passes ``_offset`` too, its forwarding latency: the frame
        is admitted when it reaches the switch, as of that much later.  The
        admin state, the fault hook and the counters are read and charged
        at the call, so what changes inside that window is not seen.
        """
        tx = self._tx
        if tx is None:
            raise InterfaceError(f"{self.full_name} is not connected")
        counters = self.counters
        if not self.admin_up:
            counters.out_discards += 1
            return False
        size = frame.size
        sim = tx.sim
        now = sim._now + _offset
        lost = tx.drop_filter is not None and tx.drop_filter(frame)
        # Settle: a frame whose serialisation has started -- at this very
        # instant included -- has left the queue.
        waiting = tx.waiting
        while waiting and waiting[0][0] <= now:
            tx.waiting_bytes -= waiting.popleft()[1]
        if lost or tx.waiting_bytes + size > tx.max_queue_bytes:
            tx.frames_dropped += 1
            tx.octets_dropped += size
            counters.out_discards += 1
            return False
        start = tx.free_at
        if start > now:
            waiting.append((start, size))
            tx.waiting_bytes += size
        else:
            start = now  # idle: straight onto the wire, never queued
        # The float expressions, and their association, of the two
        # ``schedule`` calls (end of serialisation, then propagation)
        # this replaces: arrival times are equal to the last bit.
        done = start + size * 8.0 / tx.bandwidth_bps
        tx.free_at = done
        if _arrivals is None:
            sim.schedule_at(done + tx.prop_delay, tx.dst.deliver, frame)
        else:
            _arrivals.append((done + tx.prop_delay, tx.dst))
        counters.out_octets += size
        tos = frame.payload.tos
        if tos:
            self.tos_out_octets[tos] = self.tos_out_octets.get(tos, 0) + size
        if frame.is_unicast:
            counters.out_ucast_pkts += 1
        else:
            counters.out_nucast_pkts += 1
        return True

    def deliver(self, frame: EthernetFrame) -> None:
        """The arrival event: a frame reaches this interface off the wire."""
        counters = self.counters
        if not self.admin_up:
            counters.in_discards += 1
            return
        # Non-unicast means broadcast or multicast: a host NIC takes those
        # and frames for its own MAC, nothing else.
        if not self.promiscuous and frame.is_unicast and frame.dst._value != self.mac._value:
            counters.in_filtered_pkts += 1
            return
        size = frame.size
        counters.in_octets += size
        tos = frame.payload.tos
        if tos:
            self.tos_in_octets[tos] = self.tos_in_octets.get(tos, 0) + size
        if frame.is_unicast:
            counters.in_ucast_pkts += 1
        else:
            counters.in_nucast_pkts += 1
        if self.rx_tap is not None:
            self.rx_tap(frame)
        self.device.on_frame(self, frame)  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Interface {self.full_name} {self.speed_bps / 1e6:.0f} Mb/s mac={self.mac}>"
