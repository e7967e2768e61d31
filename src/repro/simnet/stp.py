"""Deterministic spanning-tree protocol for the simulated switches.

Redundant uplinks turn the layer-2 topology into a graph with cycles;
without a spanning tree a single broadcast circulates until the hop
guard kills it.  This module gives :class:`~repro.simnet.switch.Switch`
a compact, deterministic RSTP-flavoured protocol:

- **Bridge election** by (priority, name): the lexicographically
  smallest bridge ID is the root.  Names are unique per network, so
  election is total and reproducible run to run.
- **Priority vectors** per port: each port remembers the best config
  BPDU heard on its segment; root-path candidates add the port cost
  (derived from port speed, 802.1D-style) and the lexicographic minimum
  wins.  Root / designated / alternate roles follow directly.
- **Blocking/forwarding states** with a short ``FORWARD_DELAY``:
  every port starts blocking and is only promoted ``FORWARD_DELAY``
  after its role settles, so transient loops during (re)convergence
  cannot happen.  Demotion is immediate.
- **Hello + max-age timers**: designated ports refresh their segment
  every ``HELLO`` seconds; a vector not refreshed within ``MAX_AGE``
  expires and triggers re-convergence, bounding failover time even when
  the failure is remote.  Local link-down is observed through the
  interface state observers and re-converges immediately.
- **Topology-change flooding with a hop budget**: a local role/state
  change flushes the FDB and propagates a TC flag for ``TC_HOPS``
  hops so stale MAC bindings elsewhere cannot blackhole unicast
  traffic through the old path.

BPDUs are real frames on the wire (multicast to the IEEE bridge-group
address, consumed and never forwarded), so running STP costs the
bandwidth the monitor then measures -- the same honesty rule the SNMP
substrate follows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.simnet.address import IPv4Address, MacAddress
from repro.simnet.nic import Interface
from repro.simnet.packet import EthernetFrame, udp_frame

# IEEE 802.1D bridge group address: multicast, link-constrained.
STP_MULTICAST = MacAddress(0x0180C2000000)

HELLO = 1.0
MAX_AGE = 3 * HELLO  # vectors expire after three missed hellos
FORWARD_DELAY = 0.5
TC_HOPS = 8  # how far a topology-change notification floods
_NULL_IP = IPv4Address(0)

# Port roles.
ROLE_ROOT = "root"
ROLE_DESIGNATED = "designated"
ROLE_ALTERNATE = "alternate"
ROLE_DISABLED = "disabled"

# Port states (the data-plane view; roles explain *why*).
STATE_FORWARDING = "forwarding"
STATE_BLOCKING = "blocking"

# RFC 1493 dot1dStpPortState values.
PORT_STATE_OIDS = {
    ROLE_DISABLED: 1,
    STATE_BLOCKING: 2,
    STATE_FORWARDING: 5,
}


def port_cost(speed_bps: float) -> int:
    """802.1D-1998 style path cost: inversely proportional to speed."""
    if speed_bps <= 0:
        return 65535
    return max(1, int(2e9 / speed_bps))


class Bpdu:
    """One configuration BPDU (priority vector + topology-change hops)."""

    __slots__ = (
        "root_priority", "root", "root_cost",
        "bridge_priority", "bridge", "port", "tc_hops",
    )

    def __init__(
        self,
        root_priority: int,
        root: str,
        root_cost: int,
        bridge_priority: int,
        bridge: str,
        port: int,
        tc_hops: int = 0,
    ) -> None:
        self.root_priority = root_priority
        self.root = root
        self.root_cost = root_cost
        self.bridge_priority = bridge_priority
        self.bridge = bridge
        self.port = port
        self.tc_hops = tc_hops

    def vector(self) -> Tuple:
        """The comparable priority vector (lexicographic min is best)."""
        return (
            self.root_priority, self.root, self.root_cost,
            self.bridge_priority, self.bridge, self.port,
        )

    def encode(self) -> bytes:
        return "|".join(
            str(f) for f in (
                "BPDU", self.root_priority, self.root, self.root_cost,
                self.bridge_priority, self.bridge, self.port, self.tc_hops,
            )
        ).encode()

    @classmethod
    def decode(cls, data: bytes) -> Optional["Bpdu"]:
        try:
            parts = data.decode().split("|")
            if parts[0] != "BPDU" or len(parts) != 8:
                return None
            return cls(
                int(parts[1]), parts[2], int(parts[3]),
                int(parts[4]), parts[5], int(parts[6]), int(parts[7]),
            )
        except (UnicodeDecodeError, ValueError):
            return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Bpdu root={self.root} cost={self.root_cost} via {self.bridge}:{self.port}>"


class _PortInfo:
    """Spanning-tree state of one switch port."""

    __slots__ = ("role", "state", "bpdu", "received_at", "saw_bpdu", "promote_at")

    def __init__(self) -> None:
        self.role = ROLE_DESIGNATED
        self.state = STATE_BLOCKING
        self.bpdu: Optional[Bpdu] = None  # best config heard on the segment
        self.received_at = 0.0
        self.saw_bpdu = False  # ever? (edge-port detection)
        self.promote_at: Optional[float] = None


class SpanningTree:
    """The spanning-tree instance of one switch.

    The owning :class:`~repro.simnet.switch.Switch` reads each port's
    ``forwarding`` flag on every data frame -- :meth:`_set_state` keeps it
    equal to the port's state -- and hands received BPDUs to
    :meth:`receive`; everything else runs off the hello timer and the
    interface state observers.
    """

    def __init__(self, switch, priority: int = 0x8000) -> None:
        self.switch = switch
        self.sim = switch.sim
        self.priority = priority
        self.bridge = switch.name
        self.root = switch.name
        self.root_priority = priority
        self.root_cost = 0
        self.root_port: Optional[Interface] = None
        self._ports: Dict[Interface, _PortInfo] = {
            iface: _PortInfo() for iface in switch.interfaces
        }
        # Edge detection: during the probe window every port sends BPDUs;
        # afterwards only ports that ever heard one keep participating,
        # so host-facing ports stop paying the hello tax.
        self._probe_until = self.sim.now + 2 * MAX_AGE
        self._tc_hops = 0
        self._tc_until = 0.0
        self.bpdus_sent = 0
        self.bpdus_received = 0
        self.topology_changes = 0
        self.reconverge_count = 0
        for iface, info in self._ports.items():
            self._set_state(iface, info, STATE_BLOCKING)
            iface.state_observers.append(self._on_port_state)
        self._hello_task = self.sim.call_every(HELLO, self._on_hello, start=self.sim.now)

    # ------------------------------------------------------------------
    # Data-plane queries
    # ------------------------------------------------------------------
    @staticmethod
    def _set_state(iface: Interface, info: _PortInfo, state: str) -> None:
        """The one place a port's state changes: may data frames enter or
        leave through it is what the switch reads off the interface."""
        info.state = state
        iface.forwarding = state == STATE_FORWARDING

    def role_of(self, iface: Interface) -> str:
        if not iface.admin_up or iface.link is None:
            return ROLE_DISABLED
        return self._ports[iface].role

    def port_table(self) -> List[Tuple[int, str, str]]:
        """Per-port (ifIndex, role, state), the operator/MIB view."""
        rows = []
        for iface in self.switch.interfaces:
            info = self._ports[iface]
            role = self.role_of(iface)
            state = ROLE_DISABLED if role == ROLE_DISABLED else info.state
            rows.append((iface.if_index, role, state))
        return rows

    def port_state_value(self, if_index: int) -> int:
        """RFC 1493 dot1dStpPortState integer for one port."""
        iface = self.switch.port(if_index)
        if self.role_of(iface) == ROLE_DISABLED:
            return PORT_STATE_OIDS[ROLE_DISABLED]
        return PORT_STATE_OIDS[self._ports[iface].state]

    @property
    def is_root(self) -> bool:
        return self.root == self.bridge

    # ------------------------------------------------------------------
    # BPDU receive / transmit
    # ------------------------------------------------------------------
    def receive(self, in_port: Interface, frame: EthernetFrame) -> None:
        datagram = frame.payload.payload
        if datagram is None or not isinstance(datagram.payload, bytes):
            return
        bpdu = Bpdu.decode(datagram.payload)
        if bpdu is None:
            return
        self.bpdus_received += 1
        info = self._ports[in_port]
        info.saw_bpdu = True
        stored = info.bpdu
        # Keep the best (or refreshed-same-sender) config for the segment.
        if (
            stored is None
            or bpdu.vector() <= stored.vector()
            or (bpdu.bridge == stored.bridge and bpdu.port == stored.port)
        ):
            info.bpdu = bpdu
            info.received_at = self.sim.now
        if bpdu.tc_hops > 0:
            self._flush_fdb()
            self._propagate_tc(bpdu.tc_hops - 1)
        self._reconverge()

    def _send_bpdu(self, iface: Interface, info: _PortInfo) -> None:
        bpdu = Bpdu(
            self.root_priority, self.root, self.root_cost,
            self.priority, self.bridge, iface.if_index,
            tc_hops=self._tc_hops if self.sim.now < self._tc_until else 0,
        )
        self.bpdus_sent += 1
        iface.transmit(
            udp_frame(iface.mac, STP_MULTICAST, _NULL_IP, _NULL_IP, 0, 0, bpdu.encode(), None)
        )

    def _send_bpdus(self) -> None:
        """Originate config BPDUs on every port that owes its segment one."""
        now = self.sim.now
        for iface, info in self._ports.items():
            if not iface.admin_up or iface.link is None:
                continue
            # Designated ports own their segment; during the probe window
            # every port advertises so peers discover each other.
            if info.role == ROLE_DESIGNATED or now < self._probe_until:
                self._send_bpdu(iface, info)

    # ------------------------------------------------------------------
    # Timers and link events
    # ------------------------------------------------------------------
    def _on_hello(self) -> None:
        now = self.sim.now
        aged = False
        for iface, info in self._ports.items():
            if info.bpdu is not None and now - info.received_at > MAX_AGE:
                info.bpdu = None  # the designated bridge went silent
                aged = True
        if aged:
            self._reconverge()
        for iface, info in self._ports.items():
            if info.promote_at is not None and now >= info.promote_at:
                self._promote(iface, info)
        self._send_bpdus()

    def _on_port_state(self, iface: Interface, up: bool) -> None:
        info = self._ports.get(iface)
        if info is None:
            return
        if not up:
            info.bpdu = None
            info.promote_at = None
            if info.state == STATE_FORWARDING:
                self._set_state(iface, info, STATE_BLOCKING)
                self._note_topology_change()
        self._reconverge()

    def _promote(self, iface: Interface, info: _PortInfo) -> None:
        info.promote_at = None
        if info.role in (ROLE_ROOT, ROLE_DESIGNATED) and iface.admin_up and iface.link is not None:
            if info.state != STATE_FORWARDING:
                self._set_state(iface, info, STATE_FORWARDING)
                self._note_topology_change()

    # ------------------------------------------------------------------
    # Role computation
    # ------------------------------------------------------------------
    def _reconverge(self) -> None:
        """Recompute root, roles and states from current port vectors."""
        self.reconverge_count += 1
        now = self.sim.now
        my_vector = (self.priority, self.bridge, 0, self.priority, self.bridge, 0)
        best = my_vector
        best_port: Optional[Interface] = None
        for iface, info in self._ports.items():
            if not iface.admin_up or iface.link is None or info.bpdu is None:
                continue
            bpdu = info.bpdu
            if bpdu.bridge == self.bridge:
                continue  # own echo (self-looped segment): never a root path
            candidate = (
                bpdu.root_priority, bpdu.root,
                bpdu.root_cost + port_cost(iface.speed_bps),
                bpdu.bridge_priority, bpdu.bridge, bpdu.port,
            )
            # Port index tie-breaks parallel equal-cost uplinks.
            if (candidate, iface.if_index) < (best, best_port.if_index if best_port else 0):
                best = candidate
                best_port = iface
        old = (self.root, self.root_cost, self.root_port)
        if best_port is None:
            self.root = self.bridge
            self.root_priority = self.priority
            self.root_cost = 0
            self.root_port = None
        else:
            self.root_priority, self.root = best[0], best[1]
            self.root_cost = best[2]
            self.root_port = best_port

        changed_info = old != (self.root, self.root_cost, self.root_port)
        for iface, info in self._ports.items():
            if not iface.admin_up or iface.link is None:
                info.role = ROLE_DISABLED
                self._set_state(iface, info, STATE_BLOCKING)
                info.promote_at = None
                continue
            if iface is self.root_port:
                role = ROLE_ROOT
            elif info.bpdu is None:
                role = ROLE_DESIGNATED  # silent segment: we own it
            else:
                mine = (
                    self.root_priority, self.root, self.root_cost,
                    self.priority, self.bridge, iface.if_index,
                )
                role = (
                    ROLE_DESIGNATED
                    if mine < info.bpdu.vector()
                    else ROLE_ALTERNATE
                )
            if role != info.role:
                info.role = role
                changed_info = True
            if role in (ROLE_ROOT, ROLE_DESIGNATED):
                if info.state != STATE_FORWARDING and info.promote_at is None:
                    info.promote_at = now + FORWARD_DELAY
                    self.sim.schedule(FORWARD_DELAY, self._maybe_promote, iface)
            else:
                info.promote_at = None
                if info.state == STATE_FORWARDING:
                    self._set_state(iface, info, STATE_BLOCKING)
                    self._note_topology_change()
        if changed_info:
            self._send_bpdus()

    def _maybe_promote(self, iface: Interface) -> None:
        info = self._ports.get(iface)
        if info is None or info.promote_at is None:
            return
        if self.sim.now >= info.promote_at:
            self._promote(iface, info)

    # ------------------------------------------------------------------
    # Topology change handling
    # ------------------------------------------------------------------
    def _note_topology_change(self) -> None:
        self.topology_changes += 1
        self._flush_fdb()
        self._propagate_tc(TC_HOPS)

    def _propagate_tc(self, hops: int) -> None:
        if hops <= 0:
            return
        now = self.sim.now
        if hops > self._tc_hops or now >= self._tc_until:
            self._tc_hops = hops
            self._tc_until = now + 2 * HELLO
            self._send_bpdus()

    def _flush_fdb(self) -> None:
        self.switch.flush_fdb()

    def stats(self) -> Dict[str, int]:
        return {
            "bpdus_sent": self.bpdus_sent,
            "bpdus_received": self.bpdus_received,
            "topology_changes": self.topology_changes,
            "blocked_ports": sum(
                1 for _, _, state in self.port_table() if state == STATE_BLOCKING
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SpanningTree {self.bridge} root={self.root} "
            f"cost={self.root_cost}>"
        )
