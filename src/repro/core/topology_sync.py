"""Discovery-driven topology re-convergence (paper §5, made live).

The paper's monitor reads the topology once from the specification and
assumes it holds.  PR 8's :mod:`repro.core.discovery` cross-checked that
assumption on demand; this module closes the loop and keeps the
monitor's *active view* of the topology continuously in sync with what
the network itself reports, so that a spanning-tree failover (see
:mod:`repro.simnet.stp`) or a re-cabled host moves the measured paths
without an operator editing the spec.

:class:`TopologySync` runs two kinds of periodic rounds over genuine
SNMP traffic through the monitor's own manager (so its overhead is
visible to the measurements like any other management traffic):

**Light rounds** (one per poll cycle) read ``dot1dStpPortState`` for
just the *inter-switch* ports -- one multi-varbind GET per switch, not
a table walk: spanning tree only ever blocks redundant uplinks, their
ifIndexes are known from the spec, and a whole-table walk would cost
several GETBULK exchanges per switch per poll cycle (what the rounds
cost is the perf ledger's ``snmp.exchanges_per_cycle`` on ``mesh_flat``,
which runs this sync).  Ports reported non-forwarding
map (via the spec's ifIndex ordering) onto inter-switch connections,
and the set of those becomes the graph's blocked set
(:meth:`~repro.topology.graph.TopologyGraph.set_blocked`).
The graph bumps its topology epoch only when the set actually changes,
so an unchanged spanning tree re-synced every round costs nothing
downstream -- the **epoch-stability** guarantee consumers rely on.

**Full rounds** (every ``full_every``-th round) run a complete
:class:`~repro.core.discovery.TopologyDiscoverer` pass (identity, MACs,
FDB and STP walks) and diff the host->switch-port attachment picture
against the last one.  Agents in the result's ``unreachable`` set --
and hosts last seen behind an unreachable switch -- keep their
last-known attachments: "no data" is not "detached".  A genuine delta
flushes the path memos (auto epoch bump), retiring the manual
``invalidate_paths()`` contract for monitors that enable syncing.

Either kind of change publishes a ``topology_changed`` telemetry event
and, when streaming is enabled, a typed
:class:`~repro.stream.events.TopologyChanged` on the sentinel pair; the
monitor's next report cycle then re-resolves watched paths against the
new epoch and emits ``path_rerouted`` for the ones that moved.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Set, Tuple

from repro.core.discovery import DiscoveryResult, TopologyDiscoverer, snmp_candidates
from repro.snmp.datatypes import EndOfMibView, NoSuchInstance, NoSuchObject
from repro.snmp.mib import DOT1D_STP_PORT_STATE
from repro.telemetry.events import TOPOLOGY_CHANGED
from repro.topology.model import ConnectionSpec, DeviceKind

logger = logging.getLogger("repro.monitor")

# RFC 1493 dot1dStpPortState: only 5 carries traffic.
STP_STATE_FORWARDING = 5

# Varbind values that mean "no such row", not a port state.
_ABSENT = (NoSuchObject, NoSuchInstance, EndOfMibView)

DEFAULT_FULL_EVERY = 5


def register_topology_metrics(registry) -> None:
    """Create the topology-sync metric families (idempotent).

    Registered unconditionally by the monitor, like the stream and
    integrity families, so ``stats()`` keys resolve with syncing off.
    """
    registry.counter("topology_rounds_total", "topology sync rounds completed")
    registry.counter(
        "topology_full_rounds_total", "full (discovery) topology sync rounds"
    )
    registry.counter(
        "topology_changes_total", "active-topology changes applied by the sync loop"
    )
    registry.gauge(
        "topology_blocked_connections",
        "connections currently excluded from the active view",
    )


class TopologySync:
    """Keeps a monitor's topology graph in sync with the live network.

    ``monitor`` is any monitor plane (a
    :class:`~repro.core.monitor.ReportCore`); the rounds go out through
    its ``manager`` from its report host.
    """

    def __init__(self, monitor, full_every: int = DEFAULT_FULL_EVERY) -> None:
        """One sync round per poll cycle; ``full_every`` is the round
        period of the complete discovery pass (light STP-only rounds in
        between)."""
        if full_every < 1:
            raise ValueError(f"full_every must be >= 1, got {full_every!r}")
        self.monitor = monitor
        self.spec = monitor.spec
        self.graph = monitor.graph
        self.manager = monitor.manager
        self.sim = monitor.sim
        self.interval = monitor.poll_interval
        self.full_every = full_every
        # Agents worth talking to, each under its spec community (the
        # candidates for full discovery).
        self._candidates = snmp_candidates(monitor.build)
        self._switches: Dict[str, Tuple[object, str]] = {
            name: (addr, community)
            for name, addr, community in self._candidates
            if self.spec.node(name).kind is DeviceKind.SWITCH
        }
        # (switch name, ifIndex) -> the connection on that port.  The
        # builder numbers ifIndexes in spec declaration order, so this
        # mapping is exact by construction (same rule as if_index_of).
        self._conn_by_port: Dict[Tuple[str, int], ConnectionSpec] = {}
        for conn in self.spec.connections:
            for end in conn.endpoints():
                node = self.spec.node(end.node)
                if node.kind is not DeviceKind.SWITCH:
                    continue
                for i, iface in enumerate(node.interfaces):
                    if iface.local_name == end.interface:
                        self._conn_by_port[(end.node, i + 1)] = conn
                        break
        # Per switch, the ifIndexes of its inter-switch ports -- the
        # only rows a light round needs (STP never blocks edge ports in
        # this model, and the full round re-reads everything anyway).
        self._uplink_ports: Dict[str, List[int]] = {}
        for (switch, port), conn in sorted(self._conn_by_port.items()):
            if switch not in self._switches:
                continue
            if all(
                self.spec.node(end.node).kind is DeviceKind.SWITCH
                for end in conn.endpoints()
            ):
                self._uplink_ports.setdefault(switch, []).append(port)
        # Last-known state, preserved across unreachable agents.
        self._stp_states: Dict[Tuple[str, int], int] = {}
        self._attachments: Dict[str, Tuple[str, int]] = {}
        # The first full round establishes the attachment baseline; only
        # rounds after it can report the picture *changed*.
        self._attachments_known = False
        self._task = None
        self._round_no = 0
        self._inflight = 0
        self._round_states: Dict[Tuple[str, int], int] = {}
        self._round_failed: Set[str] = set()
        # The families are the monitor's (register_topology_metrics).
        registry = monitor.telemetry.registry
        self._m_rounds = registry.get("topology_rounds_total")
        self._m_full = registry.get("topology_full_rounds_total")
        self._m_changes = registry.get("topology_changes_total")
        registry.get("topology_blocked_connections").set_function(
            lambda: float(len(self.graph.blocked_connections()))
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._task is not None

    def start(self, at: Optional[float] = None) -> None:
        if self._task is not None:
            return
        first = self.sim.now if at is None else at
        self._task = self.sim.call_every(self.interval, self.sync_now, start=first)
        logger.info(
            "topology sync started: interval %.2fs, full discovery every %d rounds, "
            "%d switch(es) / %d candidate agent(s)",
            self.interval, self.full_every,
            len(self._switches), len(self._candidates),
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def sync_now(self) -> None:
        """Run one round (light, or full on the ``full_every`` cadence).

        Asynchronous: the walks complete through the manager's event
        loop and the result is applied when the last one lands.  A round
        still in flight when the next fires is skipped (slow agents must
        not pile up concurrent discovery).
        """
        if self._inflight > 0:
            return
        self._round_no += 1
        self._m_rounds.inc()
        if self.full_every > 0 and self._round_no % self.full_every == 0:
            self._full_round()
        else:
            self._light_round()

    def _light_round(self) -> None:
        """One GET of the uplink-port dot1dStpPortState rows per switch.

        A single request/response exchange per switch per round; switches
        with no inter-switch ports have nothing spanning tree could
        block and are skipped entirely.
        """
        if not self._uplink_ports:
            return
        self._round_states = {}
        self._round_failed = set()
        self._inflight = len(self._uplink_ports)
        for name, ports in self._uplink_ports.items():

            def done(varbinds, switch=name):
                for vb in varbinds:
                    if isinstance(vb.value, _ABSENT):
                        continue  # e.g. STP off on that switch
                    arcs = vb.oid.strip_prefix(DOT1D_STP_PORT_STATE)
                    if len(arcs) == 1:
                        self._round_states[(switch, int(arcs[0]))] = int(vb.value.value)
                self._light_done()

            def failed(exc, switch=name):
                self._round_failed.add(switch)
                self._light_done()

            address, community = self._switches[name]
            self.manager.get(
                address,
                [DOT1D_STP_PORT_STATE.extend(port) for port in ports],
                done,
                failed,
                community,
            )

    def _light_done(self) -> None:
        self._inflight -= 1
        if self._inflight > 0:
            return
        # Merge: rows the round actually fetched overwrite in place;
        # everything else (other switches' rows, non-uplink rows from
        # the last full round, rows behind an unreachable agent) keeps
        # its last-known value.
        merged = dict(self._stp_states)
        merged.update(self._round_states)
        self._stp_states = merged
        self._apply_stp_states()

    def _full_round(self) -> None:
        self._m_full.inc()
        self._inflight = 1
        discoverer = TopologyDiscoverer(
            self.manager,
            list(self._candidates),
            include_stp=True,
            use_bulk=True,
        )
        discoverer.discover(self._full_done)

    def _full_done(self, result: DiscoveryResult) -> None:
        self._inflight = 0
        # STP rows ride along with full discovery; same merge rule.
        merged = {
            key: state
            for key, state in self._stp_states.items()
            if key[0] in result.unreachable
        }
        for node in result.nodes.values():
            for port, state in node.stp_states.items():
                merged[(node.name, port)] = state
        self._stp_states = merged
        self._apply_stp_states()
        self._apply_attachments(result)

    # ------------------------------------------------------------------
    # Applying what the rounds learned
    # ------------------------------------------------------------------
    def _apply_stp_states(self) -> None:
        """Project port states onto the graph's blocked-connection set.

        Only inter-switch connections (the redundant uplinks spanning
        tree actually manages) are eligible: an edge port transiently
        reported blocking during its probe window must not partition its
        host out of the active view.  A connection is blocked when
        *either* end reports non-forwarding -- traffic cannot cross a
        port that discards it, whichever side does the discarding.
        """
        blocked: Dict[Tuple, ConnectionSpec] = {}
        for (switch, port), state in self._stp_states.items():
            if state == STP_STATE_FORWARDING:
                continue
            conn = self._conn_by_port.get((switch, port))
            if conn is None:
                continue
            ends = conn.endpoints()
            if any(
                self.spec.node(end.node).kind is not DeviceKind.SWITCH
                for end in ends
            ):
                continue
            blocked[ends] = conn
        if self.graph.set_blocked(blocked.values()):
            self._changed(
                reason="stp",
                detail=(
                    "blocked uplinks now: "
                    + (
                        ", ".join(str(c) for c in self.graph.blocked_connections())
                        or "none"
                    )
                ),
            )

    def _apply_attachments(self, result: DiscoveryResult) -> None:
        """Diff the discovered host->(switch, port) picture, merge gaps."""
        new_view: Dict[str, Tuple[str, int]] = {}
        for att in result.attachments:
            if att.shared_segment:
                continue  # hubs/uplinks carry no single-host placement
            # A spec-declared uplink port learns remote MACs through the
            # fabric; a single host showing behind it is NOT attached
            # there.  Only ports the spec wires to a host (or to nothing
            # -- a spare a moved host could plug into) place hosts.
            declared = self._conn_by_port.get((att.switch, att.port))
            if declared is not None:
                far = declared.other_end(att.switch)
                if self.spec.node(far.node).kind is not DeviceKind.HOST:
                    continue
            for host in att.known_nodes:
                new_view[host] = (att.switch, att.port)
        # Merge rule: a host missing from this round's picture keeps its
        # last-known attachment when the gap is explainable by an outage
        # (the host's own agent or its last-known switch is unreachable).
        for host, place in self._attachments.items():
            if host in new_view:
                continue
            if host in result.unreachable or place[0] in result.unreachable:
                new_view[host] = place
        if not self._attachments_known:
            self._attachments = new_view
            self._attachments_known = True
            return
        if new_view != self._attachments:
            moved = sorted(
                set(new_view.items()) ^ set(self._attachments.items())
            )
            self._attachments = new_view
            self.graph.invalidate_paths()
            self._changed(
                reason="attachment",
                detail="attachment delta: "
                + "; ".join(f"{h}@{s}:{p}" for h, (s, p) in moved[:8]),
            )

    def _changed(self, reason: str, detail: str) -> None:
        self._m_changes.inc()
        now = self.sim.now
        logger.warning("topology changed (%s): %s", reason, detail)
        self.monitor.telemetry.events.publish(
            TOPOLOGY_CHANGED,
            now,
            reason=reason,
            detail=detail,
            topology_epoch=self.graph.topology_epoch,
            blocked=len(self.graph.blocked_connections()),
        )
        stream = self.monitor.stream
        if stream is not None:
            from repro.stream.events import TOPOLOGY_PAIR, TopologyChanged

            stream.manager.deliver(
                TopologyChanged(
                    pair=TOPOLOGY_PAIR,
                    time=now,
                    epoch=stream.clock.epoch,
                    reason=reason,
                    detail=detail,
                    topology_epoch=self.graph.topology_epoch,
                    blocked=len(self.graph.blocked_connections()),
                )
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def attachments(self) -> Dict[str, Tuple[str, int]]:
        """Last-known host -> (switch, port) placements (full rounds)."""
        return dict(self._attachments)

    def stp_states(self) -> Dict[Tuple[str, int], int]:
        """Last-known (switch, ifIndex) -> dot1dStpPortState rows."""
        return dict(self._stp_states)

    def stats(self) -> Dict[str, float]:
        return {
            "rounds": self._m_rounds.value,
            "full_rounds": self._m_full.value,
            "changes": self._m_changes.value,
            "blocked": float(len(self.graph.blocked_connections())),
        }
