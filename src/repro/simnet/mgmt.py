"""In-band management stack for switches.

The paper polls the switch itself over SNMP ("SNMP demons were available
on L, N1, N2, S1, S2, *and the switch*").  A managed switch answers SNMP
from its management plane: frames addressed to the switch's own MAC/IP are
terminated locally instead of being forwarded.

:class:`ManagementStack` gives a :class:`~repro.simnet.switch.Switch` the
same socket-facing surface as a :class:`~repro.simnet.host.Host`
(``create_socket`` / ``send_udp`` / ``primary_ip`` / ``name`` / ``sim``)
by being the same :class:`~repro.simnet.host.UDPEndpoint`, so the SNMP
agent code runs unchanged on hosts and switches.  Responses
leave through the switch's own forwarding fabric and therefore consume
real link bandwidth -- the source of part of the ~2 % measurement overhead
the paper attributes to "SNMP queries and acknowledgements".
"""

from __future__ import annotations

from repro.simnet.address import IPv4Address, MacAddress
from repro.simnet.host import UDPEndpoint
from repro.simnet.switch import Switch


class ManagementStack(UDPEndpoint):
    """Host-like UDP/IP endpoint living inside a switch.

    Its one outlet is the stack itself: frames carry the switch's
    management addresses and leave through the forwarding fabric.
    """

    kind = "management"
    takes_broadcasts = False  # broadcasts not for our IP are ignored at L3 too

    def __init__(self, switch: Switch, ip: IPv4Address, mac: MacAddress) -> None:
        super().__init__(switch.sim, switch.name)
        self.switch = switch
        self.ip = ip
        self.mac = mac
        # Management frames use the port MTU: all ports share one, fixed
        # when the switch is built.
        self.mtu = switch.interfaces[0].mtu
        self.transmit = switch.send_management_frame
        self._local_ips.add(ip._value)
        switch.management_ip = ip
        switch.management_mac = mac
        switch.set_management_handler(self.on_frame)
        self.network = switch.network

    @property
    def primary_ip(self) -> IPv4Address:
        return self.ip

    def route_for(self, dst_ip: IPv4Address) -> "ManagementStack":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ManagementStack {self.name} ip={self.ip}>"
