"""Learning Ethernet switch.

"A switch only forwards packets to the host for which they are destined,
not all the hosts connected to the switch" -- this is the property that
makes the paper's switch bandwidth rule (``u_i = t_i``) correct, and it is
modelled directly: unicast frames to a learned MAC go out exactly one
port, everything else floods.  A flood is one event: the ports it leaves
by are decided when the frame arrives (every linked, forwarding port but
the one it came in on), and after the forwarding latency each of them is
handed the frame in port order.  Its crossings that end at one instant
share one arrival event: on an idle star, one for every host at once.

The switch is store-and-forward with a non-blocking backplane: forwarding
adds a fixed (tiny) processing latency and output frames serialise on the
per-port links, but there is no shared internal bottleneck -- matching a
100 Mb/s switched segment where concurrent host pairs each get full rate.

Switches are SNMP-manageable: they expose all their port counters plus a
bridge forwarding table (used by the topology-discovery extension) through
an agent attached by :mod:`repro.snmp.agent`.  For that they carry a
management IP and run the same little UDP stack as hosts, with management
frames addressed to the switch's own MAC handled locally ("in-band
management").

With ``stp=True`` the switch additionally runs the deterministic
spanning-tree protocol from :mod:`repro.simnet.stp`: redundant uplinks
become legal (the blocked port drops data frames), BPDUs are consumed
here and never forwarded, and link failures re-converge onto backup
paths in bounded sim-time.
"""

from __future__ import annotations

import zlib
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.simnet.address import IPv4Address, MacAddress
from repro.simnet.engine import Simulator
from repro.simnet.nic import Interface
from repro.simnet.packet import DEFAULT_MTU, EthernetFrame
from repro.simnet.stp import STP_MULTICAST, SpanningTree

MAX_L2_HOPS = 32  # broadcast-storm guard; generous for any sane LAN
MAC_AGING = 300.0  # seconds, as in common switch defaults
SWITCH_FORWARD_LATENCY = 10e-6  # store-and-forward processing time
_STP_GROUP = STP_MULTICAST._value


class SwitchError(RuntimeError):
    """Raised for switch misconfiguration."""


def _flood(ports: List[Interface], frame: EthernetFrame) -> bool:
    """Hand one flooded frame to every port it was decided for, in order;
    True if any port accepted it.

    Each port admits the frame through its own ``transmit``, which hands
    the arrival back instead of scheduling it, and each run of
    consecutive ports whose arrivals fall at one instant becomes one
    arrival event, :func:`_deliver_each` (a run of one, the far
    interface's plain ``deliver``).  That fires what an event per port
    did, in the same order: the ``transmit`` calls schedule nothing else,
    so their arrivals would take consecutive sequence numbers, a run's
    would fire back to back, and whatever a delivery schedules comes
    after them either way.
    """
    arrivals: List[Tuple[float, Interface]] = []
    for port in ports:
        port.transmit(frame, arrivals)
    if arrivals:
        schedule_at = ports[0]._tx.sim.schedule_at  # type: ignore[union-attr]
        for at, run in groupby(arrivals, itemgetter(0)):
            interfaces = [iface for _, iface in run]
            if len(interfaces) == 1:
                schedule_at(at, interfaces[0].deliver, frame)
            else:
                schedule_at(at, _deliver_each, interfaces, frame)
    return bool(arrivals)


def _deliver_each(interfaces: List[Interface], frame: EthernetFrame) -> None:
    """The arrival event of a flood's frames that reach ``interfaces`` at
    one instant: each delivers in turn, in port order."""
    for iface in interfaces:
        iface.deliver(frame)


class FdbEntry:
    """One learned MAC -> port binding (a bridge-MIB style FDB row)."""

    __slots__ = ("mac", "port", "learned_at")

    def __init__(self, mac: MacAddress, port: Interface, learned_at: float) -> None:
        self.mac = mac
        self.port = port
        self.learned_at = learned_at


class Switch:
    """A learning switch with ``n_ports`` equal-speed ports."""

    kind = "switch"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        n_ports: int,
        port_speed_bps: float = 100e6,
        stp: bool = False,
        stp_priority: int = 0x8000,
    ) -> None:
        if n_ports < 2:
            raise SwitchError(f"a switch needs at least 2 ports, got {n_ports}")
        self.sim = sim
        self.name = name
        # Both assigned by the management stack when the switch gets one.
        self.management_ip: Optional[IPv4Address] = None
        self.management_mac: Optional[MacAddress] = None
        self.interfaces: List[Interface] = []
        self.network = None  # set by Network.add_switch
        self._fdb: Dict[int, FdbEntry] = {}  # keyed by the MAC's integer
        # Bumped whenever the set of (mac, port) bindings changes; lets
        # the bridge-MIB provider cache its row list between changes.
        self.fdb_version = 0
        self._mgmt_handler = None  # installed by the management stack
        self.frames_forwarded = 0
        self.frames_flooded = 0
        self.frames_dropped_hops = 0
        self.frames_dropped_blocked = 0
        self.frames_local = 0
        name_tag = zlib.crc32(name.encode()) & 0xFFFF
        for i in range(n_ports):
            self.interfaces.append(
                Interface(
                    device=self,
                    local_name=f"port{i + 1}",
                    # Port MACs are internal identifiers (never sources of
                    # transit frames); derived deterministically from the
                    # switch name so runs are reproducible.
                    mac=MacAddress(0x0200F0000000 | (name_tag << 8) | i),
                    ip=None,
                    speed_bps=port_speed_bps,
                    mtu=DEFAULT_MTU,
                    promiscuous=True,
                    if_index=i + 1,
                )
            )
        # Spanning tree runs after the ports exist (it observes them all).
        self.stp: Optional[SpanningTree] = (
            SpanningTree(self, priority=stp_priority) if stp else None
        )

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    def port(self, index: int) -> Interface:
        """1-based port lookup (``port(3)`` is ``port3``)."""
        if not 1 <= index <= len(self.interfaces):
            raise SwitchError(f"{self.name} has no port {index}")
        return self.interfaces[index - 1]

    def interface(self, local_name: str) -> Interface:
        for iface in self.interfaces:
            if iface.local_name == local_name:
                return iface
        raise SwitchError(f"no interface {local_name!r} on switch {self.name}")

    def free_port(self) -> Interface:
        """First unconnected port, for incremental wiring."""
        for iface in self.interfaces:
            if iface.link is None:
                return iface
        raise SwitchError(f"switch {self.name} has no free ports")

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def on_frame(self, in_port: Interface, frame: EthernetFrame) -> None:
        """Consume, learn, then forward, flood or filter -- decided on the
        addresses' integers, the ports' ``forwarding`` flags (a spanning
        tree's to clear, see :mod:`repro.simnet.stp`) and one clock read."""
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
                self.sim.schedule(SWITCH_FORWARD_LATENCY, _flood, ports, frame.hop_copy())
            # Broadcasts also reach the management plane.
            if frame.is_broadcast and self._mgmt_handler is not None:
                self._mgmt_handler(in_port, frame)

    def flush_fdb(self) -> None:
        """Drop every learned binding (spanning-tree topology change)."""
        if self._fdb:
            self._fdb.clear()
            self.fdb_version += 1

    # ------------------------------------------------------------------
    # Management plane
    # ------------------------------------------------------------------
    def set_management_handler(self, handler) -> None:
        """Install the upward frame handler for the management stack."""
        self._mgmt_handler = handler

    def send_management_frame(self, frame: EthernetFrame) -> bool:
        """Transmit a management-plane frame using the FDB.

        If the destination is unlearned the frame floods, exactly like
        transit traffic -- management responses are ordinary packets --
        out of every linked, forwarding port; True if any accepted it.
        """
        dst = frame.dst._value
        entry = self._fdb.get(dst)
        if entry is not None:
            if self.sim._now - entry.learned_at > MAC_AGING:
                del self._fdb[dst]
                self.fdb_version += 1
            elif frame.is_unicast and entry.port.forwarding:
                return entry.port.transmit(frame)
        return _flood(
            [port for port in self.interfaces if port.link is not None and port.forwarding],
            frame,
        )

    def fdb_entries(self) -> List[Tuple[MacAddress, int, float]]:
        """Live FDB as (mac, port ifIndex, age) -- the bridge-MIB view."""
        now = self.sim.now
        out = []
        for entry in self._fdb.values():
            age = now - entry.learned_at
            if age <= MAC_AGING:
                out.append((entry.mac, entry.port.if_index, age))
        out.sort(key=lambda row: row[0])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Switch {self.name} ports={len(self.interfaces)}>"
