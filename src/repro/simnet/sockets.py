"""UDP socket API over the simulator, plus the DISCARD service.

The paper's load generator "sends data streams to a designated host ...
as UDP packets to the DISCARD port (UDP port number 9)".  Hosts in the
simulator therefore expose a tiny event-driven socket layer: a socket is
bound to a port and receives datagrams through a callback.  The SNMP agent
(port 161) and manager are built on the same API, which is what makes the
monitor's own polling traffic traverse -- and load -- the simulated
network, as it did the paper's testbed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

from repro.simnet.address import IPv4Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.host import UDPEndpoint

ECHO_PORT = 7  # RFC 862
DISCARD_PORT = 9  # RFC 863
SNMP_PORT = 161

EPHEMERAL_PORT_BASE = 49152
EPHEMERAL_PORT_MAX = 65535

# (payload bytes or None, payload size, source ip, source port)
ReceiveCallback = Callable[[Optional[bytes], int, IPv4Address, int], None]


class SocketError(RuntimeError):
    """Raised for port collisions, closed-socket use, and exhaustion."""


class UDPSocket:
    """A bound UDP endpoint on one host (or switch management stack).

    Obtained via :meth:`repro.simnet.host.UDPEndpoint.create_socket`; never
    constructed directly.  ``sendto`` accepts either real payload bytes or
    a synthetic byte count, mirroring :class:`repro.simnet.packet.UDPDatagram`.
    """

    def __init__(self, host: "UDPEndpoint", port: int) -> None:
        self._host = host
        self.port = port
        self.on_receive: Optional[ReceiveCallback] = None
        self.closed = False
        # IPv4 ToS octet stamped on every outgoing packet (setsockopt
        # IP_TOS equivalent).  DSCP values occupy the top six bits.
        self.tos = 0
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.octets_sent = 0
        self.octets_received = 0

    def sendto(
        self,
        payload: Union[bytes, int],
        dst: Tuple[IPv4Address, int],
    ) -> bool:
        """Send a datagram.  Returns False if it was dropped at the NIC."""
        if self.closed:
            raise SocketError(f"socket :{self.port} on {self._host.name} is closed")
        dst_ip, dst_port = dst
        if isinstance(payload, bytes):
            data: Optional[bytes] = payload
            size = len(payload)
        else:
            data = None
            size = int(payload)
        ok = self._host.send_udp(
            src_port=self.port,
            dst_ip=dst_ip,
            dst_port=dst_port,
            payload=data,
            payload_size=size,
            tos=self.tos,
        )
        if ok:
            self.datagrams_sent += 1
            self.octets_sent += size
        return ok

    def _deliver(
        self, payload: Optional[bytes], size: int, src_ip: IPv4Address, src_port: int
    ) -> None:
        if self.closed:
            return
        self.datagrams_received += 1
        self.octets_received += size
        if self.on_receive is not None:
            self.on_receive(payload, size, src_ip, src_port)

    def close(self) -> None:
        """Release the port.  Idempotent."""
        if not self.closed:
            self.closed = True
            self._host._release_port(self.port)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self.closed else "open"
        return f"<UDPSocket {self._host.name}:{self.port} {state}>"


class EchoService:
    """RFC 862 ECHO: bounce every datagram back to its sender.

    The latency-measurement extension (paper §5 future work) probes path
    round-trip times by timestamping datagrams to this service.
    """

    def __init__(self, host: "UDPEndpoint") -> None:
        self.socket = host.create_socket(ECHO_PORT)
        self.socket.on_receive = self._on_receive
        self.echoed = 0

    def _on_receive(
        self, payload: Optional[bytes], size: int, src_ip: IPv4Address, src_port: int
    ) -> None:
        self.echoed += 1
        self.socket.sendto(payload if payload is not None else size, (src_ip, src_port))


class DiscardService:
    """RFC 863 DISCARD: swallow every datagram, keeping statistics.

    This is the sink the paper's load generator targets.  The byte and
    datagram totals let experiments assert exactly how much traffic
    actually arrived end-to-end.
    """

    def __init__(self, host: "UDPEndpoint", port: int = DISCARD_PORT) -> None:
        self.socket = host.create_socket(port)
        self.socket.on_receive = self._on_receive
        self.datagrams = 0
        self.octets = 0

    def _on_receive(
        self, payload: Optional[bytes], size: int, src_ip: IPv4Address, src_port: int
    ) -> None:
        self.datagrams += 1
        self.octets += size
