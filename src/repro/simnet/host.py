"""End hosts with a minimal UDP/IP stack.

A :class:`Host` owns one or more interfaces (the paper's model explicitly
allows multi-homed hosts -- "B and D can be hosts with multiple network
connections"), a socket table, an IP fragment-reassembly buffer and a
static route table.  The UDP/IP part is :class:`UDPEndpoint`, the one
implementation a host and a switch's management stack
(:mod:`repro.simnet.mgmt`) share; they differ in where a frame leaves.

Address resolution is a documented simplification: instead of simulating
ARP request/reply traffic, hosts consult the :class:`~repro.simnet.network.
Network` registry for the destination MAC.  The paper's measurements do
not depend on ARP (steady flows resolve once and cache), so this preserves
the relevant behaviour while keeping the byte accounting clean.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.simnet.address import IPv4Address, MacAddress
from repro.simnet.engine import Simulator
from repro.simnet.nic import Interface
from repro.simnet.packet import (
    DEFAULT_MTU,
    EthernetFrame,
    IPPacket,
    PacketError,
    ReassemblyBuffer,
    fragment_ip_packet,
    udp_frame,
)
from repro.simnet.sockets import (
    DISCARD_PORT,
    EPHEMERAL_PORT_BASE,
    EPHEMERAL_PORT_MAX,
    DiscardService,
    SocketError,
    UDPSocket,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.network import Network


class HostError(RuntimeError):
    """Raised for host misconfiguration (no interface, bad routes...)."""


class UDPEndpoint:
    """The UDP/IP end of a device: sockets, ephemeral ports, encapsulation
    on the way out, L3 filter, reassembly and demultiplexing on the way in.

    A subclass says where datagrams for a destination leave
    (:meth:`route_for`): an object with ``ip``, ``mac``, ``mtu`` and
    ``transmit(frame)`` -- a host's interface, or the management stack
    itself in front of its switch's fabric.  It lists its own addresses in
    ``_local_ips`` and sets ``takes_broadcasts``.
    """

    #: Whether a broadcast frame for somebody else's IP is taken anyway.
    takes_broadcasts = True

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.network: Optional["Network"] = None
        self._sockets: Dict[int, UDPSocket] = {}
        self._next_ephemeral = EPHEMERAL_PORT_BASE
        self._reassembly = ReassemblyBuffer()
        self._local_ips: Set[int] = set()
        # Destination IP's integer -> (what :meth:`route_for` said, the
        # destination's MAC, is it one of our own addresses): resolved once.
        # The network's ARP registry only ever grows; whatever changes
        # where frames leave (a new interface, a new route) clears this.
        self._destinations: Dict[int, Tuple[object, MacAddress, bool]] = {}
        # Stack statistics.
        self.ip_received = 0
        self.ip_forward_refused = 0
        self.udp_delivered = 0
        self.udp_no_port = 0

    # ------------------------------------------------------------------
    # Sockets
    # ------------------------------------------------------------------
    def create_socket(self, port: int = 0) -> UDPSocket:
        """Bind a UDP socket; ``port=0`` picks an ephemeral port."""
        if port == 0:
            port = self._pick_ephemeral()
        if port in self._sockets:
            raise SocketError(f"port {port} already bound on {self.name}")
        sock = UDPSocket(self, port)
        self._sockets[port] = sock
        return sock

    def bound(self, port: int) -> Optional[UDPSocket]:
        """The socket bound on ``port``, if any."""
        return self._sockets.get(port)

    def _pick_ephemeral(self) -> int:
        start = self._next_ephemeral
        port = start
        while port in self._sockets:
            port += 1
            if port > EPHEMERAL_PORT_MAX:
                port = EPHEMERAL_PORT_BASE
            if port == start:
                raise SocketError(f"ephemeral ports exhausted on {self.name}")
        self._next_ephemeral = port + 1
        if self._next_ephemeral > EPHEMERAL_PORT_MAX:
            self._next_ephemeral = EPHEMERAL_PORT_BASE
        return port

    def _release_port(self, port: int) -> None:
        self._sockets.pop(port, None)

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def route_for(self, dst_ip: IPv4Address):
        """Where datagrams for ``dst_ip`` leave this endpoint."""
        raise NotImplementedError

    def _resolve(self, dst_ip: IPv4Address) -> Tuple[object, MacAddress, bool]:
        if self.network is None:
            raise HostError(f"{self.name} is not part of a Network")
        out = self.route_for(dst_ip)
        if out.ip is None:
            raise HostError(f"{out.full_name} has no IP address")
        local = dst_ip._value in self._local_ips
        dst_mac = out.mac if local else self.network.resolve_mac(dst_ip)
        resolved = self._destinations[dst_ip._value] = (out, dst_mac, local)
        return resolved

    def send_udp(
        self,
        src_port: int,
        dst_ip: IPv4Address,
        dst_port: int,
        payload: Optional[bytes] = None,
        payload_size: Optional[int] = None,
        tos: int = 0,
    ) -> bool:
        """Encapsulate and transmit a datagram.

        Returns True when every fragment was accepted by the outlet's
        queue; a single tail-drop makes the whole datagram count as lost
        (the receiver could never reassemble it).
        """
        resolved = self._destinations.get(dst_ip._value)
        if resolved is None:
            resolved = self._resolve(dst_ip)
        out, dst_mac, local = resolved
        src_ip = dst_ip if local else out.ip
        frame = udp_frame(
            out.mac, dst_mac, src_ip, dst_ip, src_port, dst_port, payload, payload_size, tos
        )
        if local:
            # Loopback: local traffic never touches the wire (and so never
            # perturbs any interface counter), as in a real IP stack.  The
            # monitor polling its own host's agent takes this path.
            self.sim.schedule(0.0, self._deliver_udp, frame.payload)
            return True
        if frame.size <= out.mtu:  # the common case: nothing to fragment
            return out.transmit(frame)
        ok = True
        for frag in fragment_ip_packet(frame.payload, out.mtu):
            if not out.transmit(EthernetFrame(src=out.mac, dst=dst_mac, payload=frag)):
                ok = False
        return ok

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_frame(self, iface: Interface, frame: EthernetFrame) -> None:
        """Upward delivery of a frame that reached this endpoint's MAC
        (or everybody's): L3 filter, reassembly, demultiplex."""
        packet = frame.payload
        self.ip_received += 1
        if packet.dst._value not in self._local_ips and not (
            frame.is_broadcast and self.takes_broadcasts
        ):
            # Endpoints do not forward; a mis-switched unicast frame for a
            # different IP is silently refused (counted for diagnostics).
            self.ip_forward_refused += 1
            return
        if packet.more_fragments or packet.fragment_offset > 0:
            try:
                packet = self._reassembly.add(packet, self.sim.now)
            except PacketError:
                return
            if packet is None:
                return
        self._deliver_udp(packet)

    def _deliver_udp(self, packet: IPPacket) -> None:
        datagram = packet.payload
        assert datagram is not None
        sock = self._sockets.get(datagram.dst_port)
        if sock is None:
            self.udp_no_port += 1
            return
        self.udp_delivered += 1
        sock._deliver(
            datagram.payload,
            int(datagram.payload_size or 0),
            packet.src,
            datagram.src_port,
        )


class Host(UDPEndpoint):
    """An end system: interfaces + UDP/IP stack + sockets.

    Hosts do not forward IP traffic (they are not routers); the paper's
    testbed is a single LAN where switches and hubs do the forwarding at
    layer 2.
    """

    kind = "host"

    def __init__(self, sim: Simulator, name: str, os_label: str = "generic") -> None:
        super().__init__(sim, name)
        self.os_label = os_label  # "Linux", "Solaris 7", "Win NT" in Fig. 3
        self.interfaces: List[Interface] = []
        # Static routes: list of (network, prefix_len, interface).  The
        # longest matching prefix wins; default route is the first
        # interface.
        self._routes: List[Tuple[IPv4Address, int, Interface]] = []
        self.discard: Optional[DiscardService] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_interface(
        self,
        local_name: str,
        mac: MacAddress,
        ip: IPv4Address,
        speed_bps: float,
        mtu: int = DEFAULT_MTU,
    ) -> Interface:
        """Create a NIC.  Host NICs are non-promiscuous (see nic.py)."""
        if any(i.local_name == local_name for i in self.interfaces):
            raise HostError(f"duplicate interface name {local_name!r} on {self.name}")
        iface = Interface(
            device=self,
            local_name=local_name,
            mac=mac,
            ip=ip,
            speed_bps=speed_bps,
            mtu=mtu,
            promiscuous=False,
            if_index=len(self.interfaces) + 1,
        )
        self.interfaces.append(iface)
        self._local_ips.add(ip._value)
        self._destinations.clear()
        return iface

    def interface(self, local_name: str) -> Interface:
        for iface in self.interfaces:
            if iface.local_name == local_name:
                return iface
        raise HostError(f"no interface {local_name!r} on host {self.name}")

    def add_route(self, network: IPv4Address, prefix_len: int, iface: Interface) -> None:
        """Install a static route (used only by multi-homed hosts)."""
        if iface not in self.interfaces:
            raise HostError(f"{iface.full_name} does not belong to {self.name}")
        self._routes.append((network, prefix_len, iface))
        self._routes.sort(key=lambda r: -r[1])  # longest prefix first
        self._destinations.clear()

    def announce(self) -> None:
        """Send a tiny broadcast from every NIC (gratuitous-ARP stand-in).

        Real hosts make themselves known to switches the moment they join
        a LAN (gratuitous ARP, DHCP, NetBIOS...).  Without this, a pure
        traffic sink would never be learned and every frame towards it
        would flood -- corrupting the per-port switch counters the paper's
        monitor relies on.  :meth:`repro.simnet.network.Network.
        announce_hosts` schedules this for all hosts at t=0.
        """
        if self.network is None:
            raise HostError(f"{self.name} is not part of a Network")
        broadcast_ip = self.network.broadcast_ip
        broadcast_mac = self.network.resolve_mac(broadcast_ip)
        for iface in self.interfaces:
            if iface.ip is None or iface.link is None:
                continue
            iface.transmit(
                udp_frame(iface.mac, broadcast_mac, iface.ip, broadcast_ip, 68, 68, None, 18)
            )

    def start_discard_service(self) -> DiscardService:
        """Run the RFC 863 DISCARD sink the load generator targets."""
        if self.discard is None:
            self.discard = DiscardService(self, DISCARD_PORT)
        return self.discard

    @property
    def primary_ip(self) -> IPv4Address:
        if not self.interfaces or self.interfaces[0].ip is None:
            raise HostError(f"host {self.name} has no addressed interface")
        return self.interfaces[0].ip

    def route_for(self, dst_ip: IPv4Address) -> Interface:
        """Pick the outgoing interface for ``dst_ip``."""
        for network, prefix_len, iface in self._routes:
            if dst_ip.in_subnet(network, prefix_len):
                return iface
        if not self.interfaces:
            raise HostError(f"host {self.name} has no interfaces")
        return self.interfaces[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name} ({self.os_label}) ifs={len(self.interfaces)}>"
