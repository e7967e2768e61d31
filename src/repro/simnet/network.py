"""The Network container: builds and wires a simulated LAN.

A :class:`Network` owns the simulator clock, deterministic MAC/IP
allocators, the device inventory and the IP->MAC resolution registry (the
ARP substitute described in :mod:`repro.simnet.host`).  Experiments and the
spec-language builder construct their topologies through this API.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.simnet.address import (
    BROADCAST_MAC,
    IPv4Address,
    IPv4Allocator,
    MacAddress,
    MacAllocator,
)
from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.hub import Hub
from repro.simnet.link import Link
from repro.simnet.mgmt import ManagementStack
from repro.simnet.nic import Interface
from repro.simnet.switch import Switch

BROADCAST_IP = IPv4Address("255.255.255.255")
# Seconds between two hosts' announcements: a hub's shared medium never
# sees two at the same instant, so no run depends on a tie-break there.
ANNOUNCE_STAGGER = 1e-4

Device = Union[Host, Switch, Hub]


class NetworkError(RuntimeError):
    """Raised for wiring/naming mistakes while building a network."""


class Network:
    """A complete simulated LAN."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.hubs: Dict[str, Hub] = {}
        self.links: List[Link] = []
        self.management: Dict[str, ManagementStack] = {}
        self._mac_alloc = MacAllocator()
        self._ip_alloc = IPv4Allocator("10.0.0.0", 16)
        # Keyed by the IP's integer; broadcast resolves like any other.
        self._arp: Dict[int, MacAddress] = {BROADCAST_IP._value: BROADCAST_MAC}

    # ------------------------------------------------------------------
    # Device construction
    # ------------------------------------------------------------------
    def add_host(
        self,
        name: str,
        speed_bps: float = 100e6,
        os_label: str = "generic",
        n_interfaces: int = 1,
        with_discard: bool = True,
    ) -> Host:
        """Create a host with ``n_interfaces`` addressed NICs."""
        self._check_name(name)
        host = Host(self.sim, name, os_label=os_label)
        host.network = self
        for i in range(n_interfaces):
            self.add_host_interface(host, f"eth{i}", speed_bps)
        if with_discard:
            host.start_discard_service()
        self.hosts[name] = host
        return host

    def add_host_interface(
        self, host: Host, local_name: str, speed_bps: float = 100e6
    ) -> Interface:
        """Add a further NIC to ``host`` (multi-homed hosts, Figure 1)."""
        mac = self._mac_alloc.allocate()
        ip = self._ip_alloc.allocate()
        iface = host.add_interface(local_name, mac, ip, speed_bps)
        self._register(ip, mac)
        return iface

    def add_switch(
        self,
        name: str,
        n_ports: int,
        port_speed_bps: float = 100e6,
        managed: bool = True,
        stp: bool = False,
        stp_priority: int = 0x8000,
    ) -> Switch:
        """Create a switch; ``managed`` gives it an SNMP-ready stack.

        ``stp`` runs the deterministic spanning-tree protocol on it,
        making redundant (cyclic) wiring legal.
        """
        self._check_name(name)
        switch = Switch(
            self.sim, name, n_ports, port_speed_bps, stp=stp, stp_priority=stp_priority
        )
        switch.network = self
        self.switches[name] = switch
        if managed:
            mac = self._mac_alloc.allocate()
            ip = self._ip_alloc.allocate()
            stack = ManagementStack(switch, ip, mac)
            stack.network = self
            self.management[name] = stack
            self._register(ip, mac)
        return switch

    def add_hub(self, name: str, n_ports: int, speed_bps: float = 10e6) -> Hub:
        """Create a (dumb, unmanaged) hub."""
        self._check_name(name)
        hub = Hub(self.sim, name, n_ports, speed_bps)
        hub.network = self
        self.hubs[name] = hub
        return hub

    def _check_name(self, name: str) -> None:
        if name in self.hosts or name in self.switches or name in self.hubs:
            raise NetworkError(f"duplicate device name {name!r}")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(
        self,
        a: Union[Interface, Device],
        b: Union[Interface, Device],
        **link_kwargs,
    ) -> Link:
        """Connect two interfaces (or devices, using their free ports)."""
        iface_a = self._as_interface(a)
        iface_b = self._as_interface(b)
        link = Link(self.sim, iface_a, iface_b, **link_kwargs)
        self.links.append(link)
        return link

    @staticmethod
    def _as_interface(obj: Union[Interface, Device]) -> Interface:
        if isinstance(obj, Interface):
            return obj
        if isinstance(obj, (Switch, Hub)):
            return obj.free_port()
        if isinstance(obj, Host):
            for iface in obj.interfaces:
                if iface.link is None:
                    return iface
            raise NetworkError(f"host {obj.name} has no free interface")
        raise NetworkError(f"cannot connect object of type {type(obj).__name__}")

    # ------------------------------------------------------------------
    # Lookup / resolution
    # ------------------------------------------------------------------
    def device(self, name: str) -> Device:
        for table in (self.hosts, self.switches, self.hubs):
            if name in table:
                return table[name]
        raise NetworkError(f"no device named {name!r}")

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise NetworkError(f"no host named {name!r}") from None

    def endpoint(self, name: str):
        """An SNMP-capable endpoint: a host, or a switch's mgmt stack."""
        if name in self.hosts:
            return self.hosts[name]
        if name in self.management:
            return self.management[name]
        raise NetworkError(f"{name!r} is not an addressable endpoint")

    def ip_of(self, name: str) -> IPv4Address:
        return self.endpoint(name).primary_ip

    def _register(self, ip: IPv4Address, mac: MacAddress) -> None:
        if ip._value in self._arp:
            raise NetworkError(f"IP {ip} registered twice")
        self._arp[ip._value] = mac

    def resolve_mac(self, ip: IPv4Address) -> MacAddress:
        """ARP substitute: map an IP to its MAC (broadcast-aware)."""
        try:
            return self._arp[ip._value]
        except KeyError:
            raise NetworkError(f"no device owns IP {ip}") from None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def broadcast_ip(self) -> IPv4Address:
        return BROADCAST_IP

    def announce_hosts(self, at: float = 0.0) -> None:
        """Schedule every host's gratuitous announcement, in name order,
        ``ANNOUNCE_STAGGER`` seconds apart."""
        for i, host in enumerate(sorted(self.hosts.values(), key=lambda h: h.name)):
            self.sim.schedule_at(max(at, self.sim.now) + i * ANNOUNCE_STAGGER, host.announce)

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until: float) -> None:
        self.sim.run(until)

    def all_interfaces(self) -> List[Interface]:
        out: List[Interface] = []
        for host in self.hosts.values():
            out.extend(host.interfaces)
        for switch in self.switches.values():
            out.extend(switch.interfaces)
        for hub in self.hubs.values():
            out.extend(hub.interfaces)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Network hosts={len(self.hosts)} switches={len(self.switches)} "
            f"hubs={len(self.hubs)} links={len(self.links)} t={self.sim.now:.3f}>"
        )
