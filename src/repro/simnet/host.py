"""End hosts with a minimal UDP/IP stack.

A :class:`Host` owns one or more interfaces (the paper's model explicitly
allows multi-homed hosts -- "B and D can be hosts with multiple network
connections"), a socket table, an IP fragment-reassembly buffer and a
static route table.

Address resolution is a documented simplification: instead of simulating
ARP request/reply traffic, hosts consult the :class:`~repro.simnet.network.
Network` registry for the destination MAC.  The paper's measurements do
not depend on ARP (steady flows resolve once and cache), so this preserves
the relevant behaviour while keeping the byte accounting clean.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.simnet.address import IPv4Address, MacAddress
from repro.simnet.engine import Simulator
from repro.simnet.nic import Interface
from repro.simnet.packet import (
    DEFAULT_MTU,
    EthernetFrame,
    IPPacket,
    PacketError,
    ReassemblyBuffer,
    UDPDatagram,
    fragment_ip_packet,
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


class Host:
    """An end system: interfaces + UDP/IP stack + sockets.

    Hosts do not forward IP traffic (they are not routers); the paper's
    testbed is a single LAN where switches and hubs do the forwarding at
    layer 2.
    """

    kind = "host"

    def __init__(self, sim: Simulator, name: str, os_label: str = "generic") -> None:
        self.sim = sim
        self.name = name
        self.os_label = os_label  # "Linux", "Solaris 7", "Win NT" in Fig. 3
        self.interfaces: List[Interface] = []
        self.network: Optional["Network"] = None
        self._sockets: Dict[int, UDPSocket] = {}
        self._next_ephemeral = EPHEMERAL_PORT_BASE
        self._reassembly = ReassemblyBuffer()
        # Static routes: list of (network, prefix_len, interface).  The
        # longest matching prefix wins; default route is the first
        # interface.
        self._routes: List[Tuple[IPv4Address, int, Interface]] = []
        # Stack statistics.
        self.ip_received = 0
        self.ip_forward_refused = 0
        self.udp_delivered = 0
        self.udp_no_port = 0
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
            raise HostError(f"host {self.name} is not part of a Network")
        for iface in self.interfaces:
            if iface.ip is None or iface.link is None:
                continue
            datagram = UDPDatagram(src_port=68, dst_port=68, payload_size=18)
            packet = IPPacket(src=iface.ip, dst=self.network.broadcast_ip, payload=datagram)
            frame = EthernetFrame(
                src=iface.mac, dst=self.network.resolve_mac(self.network.broadcast_ip),
                payload=packet,
            )
            iface.transmit(frame)

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
    def route_for(self, dst_ip: IPv4Address) -> Interface:
        """Pick the outgoing interface for ``dst_ip``."""
        for network, prefix_len, iface in self._routes:
            if dst_ip.in_subnet(network, prefix_len):
                return iface
        if not self.interfaces:
            raise HostError(f"host {self.name} has no interfaces")
        return self.interfaces[0]

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

        Returns True when every fragment was accepted by the NIC queue;
        a single tail-drop makes the whole datagram count as lost (the
        receiver could never reassemble it).
        """
        if self.network is None:
            raise HostError(f"host {self.name} is not part of a Network")
        iface = self.route_for(dst_ip)
        if iface.ip is None:
            raise HostError(f"{iface.full_name} has no IP address")
        datagram = UDPDatagram(
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
            payload_size=payload_size,
        )
        if self._is_local_ip(dst_ip):
            # Loopback: local traffic never touches the wire (and so never
            # perturbs any interface counter), as in a real IP stack.  The
            # monitor polling its own host's agent takes this path.
            packet = IPPacket(src=dst_ip, dst=dst_ip, payload=datagram, tos=tos)
            self.sim.schedule(0.0, self._deliver_udp, packet)
            return True
        dst_mac = self.network.resolve_mac(dst_ip)
        packet = IPPacket(src=iface.ip, dst=dst_ip, payload=datagram, tos=tos)
        if packet.size <= iface.mtu:  # the common case: nothing to fragment
            return iface.transmit(EthernetFrame(src=iface.mac, dst=dst_mac, payload=packet))
        ok = True
        for frag in fragment_ip_packet(packet, iface.mtu):
            frame = EthernetFrame(src=iface.mac, dst=dst_mac, payload=frag)
            if not iface.transmit(frame):
                ok = False
        return ok

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_frame(self, iface: Interface, frame: EthernetFrame) -> None:
        """Upward delivery from a NIC (already MAC-filtered there)."""
        packet = frame.payload
        self.ip_received += 1
        if not self._is_local_ip(packet.dst) and not frame.is_broadcast:
            # Hosts do not forward; a mis-switched unicast frame for a
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

    def _is_local_ip(self, ip: IPv4Address) -> bool:
        value = ip._value
        for iface in self.interfaces:
            if iface.ip is not None and iface.ip._value == value:
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name} ({self.os_label}) ifs={len(self.interfaces)}>"
