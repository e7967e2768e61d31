"""In-band management stack for switches.

The paper polls the switch itself over SNMP ("SNMP demons were available
on L, N1, N2, S1, S2, *and the switch*").  A managed switch answers SNMP
from its management plane: frames addressed to the switch's own MAC/IP are
terminated locally instead of being forwarded.

:class:`ManagementStack` gives a :class:`~repro.simnet.switch.Switch` the
same socket-facing surface as a :class:`~repro.simnet.host.Host`
(``create_socket`` / ``send_udp`` / ``primary_ip`` / ``name`` / ``sim``),
so the SNMP agent code runs unchanged on hosts and switches.  Responses
leave through the switch's own forwarding fabric and therefore consume
real link bandwidth -- the source of part of the ~2 % measurement overhead
the paper attributes to "SNMP queries and acknowledgements".
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.simnet.address import IPv4Address, MacAddress
from repro.simnet.host import HostError
from repro.simnet.nic import Interface
from repro.simnet.packet import (
    EthernetFrame,
    IPPacket,
    PacketError,
    ReassemblyBuffer,
    UDPDatagram,
    fragment_ip_packet,
)
from repro.simnet.sockets import (
    EPHEMERAL_PORT_BASE,
    EPHEMERAL_PORT_MAX,
    SocketError,
    UDPSocket,
)
from repro.simnet.switch import Switch


class ManagementStack:
    """Host-like UDP/IP endpoint living inside a switch."""

    kind = "management"

    def __init__(self, switch: Switch, ip: IPv4Address, mac: MacAddress) -> None:
        self.switch = switch
        self.sim = switch.sim
        self.name = switch.name
        self.ip = ip
        self.mac = mac
        switch.management_ip = ip
        switch.management_mac = mac
        switch.set_management_handler(self._on_frame)
        self.network = switch.network
        self._sockets: Dict[int, UDPSocket] = {}
        self._next_ephemeral = EPHEMERAL_PORT_BASE
        self._reassembly = ReassemblyBuffer()
        self.udp_delivered = 0
        self.udp_no_port = 0

    # ------------------------------------------------------------------
    # Host-compatible surface
    # ------------------------------------------------------------------
    @property
    def primary_ip(self) -> IPv4Address:
        return self.ip

    def create_socket(self, port: int = 0) -> UDPSocket:
        if port == 0:
            port = self._pick_ephemeral()
        if port in self._sockets:
            raise SocketError(f"port {port} already bound on {self.name}")
        sock = UDPSocket(self, port)  # type: ignore[arg-type]
        self._sockets[port] = sock
        return sock

    def _pick_ephemeral(self) -> int:
        port = self._next_ephemeral
        while port in self._sockets:
            port += 1
            if port > EPHEMERAL_PORT_MAX:
                port = EPHEMERAL_PORT_BASE
        self._next_ephemeral = min(port + 1, EPHEMERAL_PORT_MAX)
        return port

    def _release_port(self, port: int) -> None:
        self._sockets.pop(port, None)

    def send_udp(
        self,
        src_port: int,
        dst_ip: IPv4Address,
        dst_port: int,
        payload: Optional[bytes] = None,
        payload_size: Optional[int] = None,
        tos: int = 0,
    ) -> bool:
        network = self.switch.network
        if network is None:
            raise HostError(f"switch {self.name} is not part of a Network")
        dst_mac = network.resolve_mac(dst_ip)
        datagram = UDPDatagram(
            src_port=src_port, dst_port=dst_port, payload=payload, payload_size=payload_size
        )
        packet = IPPacket(src=self.ip, dst=dst_ip, payload=datagram, tos=tos)
        # Management frames use the largest port MTU; all ports share one.
        mtu = self.switch.interfaces[0].mtu
        ok = True
        for frag in fragment_ip_packet(packet, mtu):
            frame = EthernetFrame(src=self.mac, dst=dst_mac, payload=frag)
            ok = self.switch.send_management_frame(None, frame) and ok
        return ok

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_frame(self, in_port: Interface, frame: EthernetFrame) -> None:
        packet = frame.payload
        if packet.dst._value != self.ip._value:
            return  # not ours; broadcasts not for our IP are ignored at L3 too
        try:
            complete = self._reassembly.add(packet, self.sim.now)
        except PacketError:
            return
        if complete is None:
            return
        datagram = complete.payload
        assert datagram is not None
        sock = self._sockets.get(datagram.dst_port)
        if sock is None:
            self.udp_no_port += 1
            return
        self.udp_delivered += 1
        sock._deliver(
            datagram.payload,
            int(datagram.payload_size or 0),
            complete.src,
            datagram.src_port,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ManagementStack {self.name} ip={self.ip}>"
