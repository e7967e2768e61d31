"""Repeating Ethernet hub (shared medium).

"A hub forwards data packets to all the connected hosts, not just the one
for which a packet is destined."  That broadcast behaviour is exactly what
forces the paper's hub bandwidth rule (``u_i = Σ_j t_j``, clamped to the
hub speed), so the model repeats every incoming frame out of every other
port.

The shared-medium capacity is modelled with a single internal serialiser:
all repeats pass one at a time through a queue drained at ``speed_bps``.
That caps the hub's aggregate throughput at its rated speed -- a 10 Mb/s
hub carries 10 Mb/s *total*, not per port -- which is the physical property
behind the paper's clamp "u_i cannot exceed the maximum speed of the hub".
(Repeated frames then serialise again on each outgoing port link; at the
paper's load levels this adds only microseconds of latency and does not
alter any byte counter.)

Hubs in the testbed had no SNMP daemon, and neither do ours: the monitor
must measure hub segments from the *host* and *switch* counters around
them, as in the paper.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.simnet.address import MacAddress
from repro.simnet.engine import Simulator
from repro.simnet.nic import Interface
from repro.simnet.packet import DEFAULT_MTU, EthernetFrame
from repro.simnet.switch import MAX_L2_HOPS

HUB_QUEUE_BYTES = 262_144


class HubError(RuntimeError):
    """Raised for hub misconfiguration."""


class Hub:
    """An ``n_ports`` repeater sharing ``speed_bps`` across all ports."""

    kind = "hub"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        n_ports: int,
        speed_bps: float = 10e6,
    ) -> None:
        if n_ports < 2:
            raise HubError(f"a hub needs at least 2 ports, got {n_ports}")
        if speed_bps <= 0:
            raise HubError(f"non-positive hub speed {speed_bps!r}")
        self.sim = sim
        self.name = name
        self.speed_bps = float(speed_bps)
        self.interfaces: List[Interface] = []
        self.network = None  # set by Network.add_hub
        self._queue: Deque[Tuple[Interface, EthernetFrame]] = deque()
        self._queue_bytes = 0
        self._busy = False
        self.frames_repeated = 0
        self.frames_dropped = 0
        self.frames_dropped_hops = 0
        for i in range(n_ports):
            self.interfaces.append(
                Interface(
                    device=self,
                    local_name=f"port{i + 1}",
                    mac=MacAddress(0x0200E0000000 + i),
                    ip=None,
                    # Every hub port runs at the shared hub speed; this is
                    # also what clamps attached 100 Mb/s NICs down to
                    # 10 Mb/s via Link's min-speed rule.
                    speed_bps=speed_bps,
                    mtu=DEFAULT_MTU,
                    promiscuous=True,
                    if_index=i + 1,
                )
            )

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    def port(self, index: int) -> Interface:
        """1-based port lookup."""
        if not 1 <= index <= len(self.interfaces):
            raise HubError(f"{self.name} has no port {index}")
        return self.interfaces[index - 1]

    def interface(self, local_name: str) -> Interface:
        for iface in self.interfaces:
            if iface.local_name == local_name:
                return iface
        raise HubError(f"no interface {local_name!r} on hub {self.name}")

    def free_port(self) -> Interface:
        for iface in self.interfaces:
            if iface.link is None:
                return iface
        raise HubError(f"hub {self.name} has no free ports")

    # ------------------------------------------------------------------
    # Repeating
    # ------------------------------------------------------------------
    def on_frame(self, in_port: Interface, frame: EthernetFrame) -> None:
        size = frame.size
        if frame.hops >= MAX_L2_HOPS:
            self.frames_dropped_hops += 1
            return
        if self._queue_bytes + size > HUB_QUEUE_BYTES:
            self.frames_dropped += 1
            return
        if self._busy:
            self._queue.append((in_port, frame))
            self._queue_bytes += size
        else:
            # An idle medium takes the frame at once, never queued, and
            # carries it once, at hub speed.
            self._busy = True
            self.sim.schedule(size * 8.0 / self.speed_bps, self._emit, in_port, frame)

    def _emit(self, in_port: Interface, frame: EthernetFrame) -> None:
        out_frame = frame.hop_copy()
        self.frames_repeated += 1
        for port in self.interfaces:
            if port is not in_port and port.link is not None:
                port.transmit(out_frame)
        if self._queue:
            in_port, frame = self._queue.popleft()
            size = frame.size
            self._queue_bytes -= size
            self.sim.schedule(size * 8.0 / self.speed_bps, self._emit, in_port, frame)
        else:
            self._busy = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Hub {self.name} ports={len(self.interfaces)} {self.speed_bps / 1e6:.0f} Mb/s>"
