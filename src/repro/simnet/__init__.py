"""Packet-level discrete-event LAN simulator.

This package is the physical-testbed substitute for the reproduction of
*Monitoring Network QoS in a Dynamic Real-Time System* (IPPS 2002).  The
paper evaluated its monitor on a real LAN (Figure 3: one 100 Mb/s switch,
one 10 Mb/s hub, nine hosts); here the same topology is built out of
simulated components that move individual Ethernet frames through FIFO
link queues and maintain the exact MIB-II interface counters that the
paper's SNMP poller reads.

Component overview
------------------
- :mod:`repro.simnet.engine`    -- event-heap scheduler and simulation clock.
- :mod:`repro.simnet.address`   -- MAC and IPv4 address value types.
- :mod:`repro.simnet.packet`    -- frames, IP packets, UDP datagrams,
  header-size accounting and MTU fragmentation.
- :mod:`repro.simnet.link`      -- point-to-point duplex links with finite
  bandwidth, propagation delay and bounded FIFO queues.
- :mod:`repro.simnet.nic`       -- network interfaces with MIB-II counters.
- :mod:`repro.simnet.host`      -- end hosts with a minimal UDP/IP stack.
- :mod:`repro.simnet.switch`    -- learning switch (per-port forwarding).
- :mod:`repro.simnet.hub`       -- repeating hub (shared medium, broadcast).
- :mod:`repro.simnet.sockets`   -- UDP socket API and the DISCARD service.
- :mod:`repro.simnet.trafficgen`-- the paper's UDP load generator plus
  background-chatter sources.
- :mod:`repro.simnet.network`   -- container wiring devices together.
"""

from repro.simnet.address import BROADCAST_MAC, IPv4Address, MacAddress
from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.hub import Hub
from repro.simnet.link import Link
from repro.simnet.network import Network
from repro.simnet.nic import Interface
from repro.simnet.packet import EthernetFrame, IPPacket, UDPDatagram
from repro.simnet.sockets import DISCARD_PORT, UDPSocket
from repro.simnet.switch import Switch
from repro.simnet.trafficgen import (
    BackgroundChatter,
    StaircaseLoad,
    StepSchedule,
)

__all__ = [
    "BROADCAST_MAC",
    "BackgroundChatter",
    "DISCARD_PORT",
    "EthernetFrame",
    "Host",
    "Hub",
    "IPPacket",
    "IPv4Address",
    "Interface",
    "Link",
    "MacAddress",
    "Network",
    "Simulator",
    "StaircaseLoad",
    "StepSchedule",
    "Switch",
    "UDPDatagram",
    "UDPSocket",
]
