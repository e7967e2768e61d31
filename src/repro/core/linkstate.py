"""Link-state tracking from SNMP notifications.

Polling tells the monitor a link's *throughput*; traps tell it the link is
*gone*, interval-boundary fast.  :class:`LinkStateRegistry` maps incoming
linkDown/linkUp events -- identified by (agent address, ifIndex) -- onto
spec connections, and the bandwidth calculator consults it so that a
downed connection reports zero available bandwidth instead of looking
idle-and-healthy.

A linkDown trap may itself be lost (it often travels the very link that
died); the registry therefore also accepts poll-timeout hints, and the RM
middleware treats "no data" conservatively.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Tuple

from repro.core.counters import if_index_of
from repro.core.dataflow import EpochClock
from repro.simnet.address import IPv4Address
from repro.snmp.trap import TrapEvent
from repro.topology.model import ConnectionSpec, TopologySpec

logger = logging.getLogger("repro.monitor")


class LinkStateRegistry:
    """Tracks which spec connections are operationally down."""

    def __init__(self, spec: TopologySpec, address_of: Dict[str, IPv4Address]) -> None:
        """``address_of`` maps SNMP node names to their agent addresses."""
        self.spec = spec
        self._node_by_address: Dict[IPv4Address, str] = {
            addr: node for node, addr in address_of.items()
        }
        # (node, ifIndex) -> connection touching that exact interface.
        self._conn_by_interface: Dict[Tuple[str, int], ConnectionSpec] = {}
        for conn in spec.connections:
            for end in conn.endpoints():
                node = spec.node(end.node)
                self._conn_by_interface[(end.node, if_index_of(node, end.interface))] = conn
        self._down: set = set()
        # Epochs bump only on actual up<->down flips, never on redundant
        # notifications, so downstream caches stay warm through trap spam.
        self._epochs = EpochClock()
        self.events_applied = 0
        self.events_unmapped = 0

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def apply_trap(self, event: TrapEvent) -> Optional[ConnectionSpec]:
        """Digest a link trap; returns the affected connection, if mapped."""
        if not (event.is_link_down or event.is_link_up):
            return None
        node = self._node_by_address.get(event.source_ip)
        if_index = event.if_index()
        if node is None or if_index is None:
            self.events_unmapped += 1
            return None
        conn = self._conn_by_interface.get((node, if_index))
        if conn is None:
            self.events_unmapped += 1
            return None
        self.events_applied += 1
        self._flip(conn.endpoints(), event.is_link_down)
        if event.is_link_down:
            logger.warning(
                "linkDown: connection %s is operationally down (trap from %s)",
                conn, event.source_ip,
            )
        else:
            logger.info("linkUp: connection %s recovered", conn)
        return conn

    def apply_oper_status(self, node: str, if_index: int, up: bool) -> None:
        """Poll-based backstop: fold an ifOperStatus reading in.

        Traps can be lost (often over the very link that died); the
        poller's next cycle reads the status column and lands here.
        """
        conn = self._conn_by_interface.get((node, if_index))
        if conn is None:
            self.events_unmapped += 1
            return
        if not self._flip(conn.endpoints(), not up):
            return
        if up:
            logger.info("ifOperStatus: connection %s recovered", conn)
        else:
            logger.warning(
                "ifOperStatus: connection %s is operationally down "
                "(observed at %s ifIndex %d)", conn, node, if_index,
            )

    def _flip(self, key: Tuple, down: bool) -> bool:
        """Set one connection down or up; True when that changed its
        state (and so bumped its epoch)."""
        if (key in self._down) == down:
            return False
        if down:
            self._down.add(key)
        else:
            self._down.discard(key)
        self._epochs.bump(key)
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        """Global link-state clock: increases on every up<->down flip."""
        return self._epochs.clock

    def epoch_of(self, conn: ConnectionSpec) -> int:
        """Flip epoch of one connection (0: never flipped)."""
        return self._epochs.epoch(conn.endpoints())

    def is_down(self, conn: ConnectionSpec) -> bool:
        return conn.endpoints() in self._down

    def down_connections(self) -> List[ConnectionSpec]:
        return [c for c in self.spec.connections if self.is_down(c)]

    def __len__(self) -> int:
        return len(self._down)
