"""The network QoS monitor (paper §3, assembled).

The paper's monitor is one pipeline: poll -> counter rates -> path
traversal -> ``A = min(m_i - u_i)`` -> report to RM.  Everything after
"counter rates" is the same whichever way the samples were collected,
so it lives here once: :class:`ReportCore` owns the
:class:`~repro.core.poller.RateTable`, the integrity pipeline, the
:class:`~repro.core.bandwidth.BandwidthCalculator`, the watched paths
(resolved on the shared :class:`~repro.topology.graph.TopologyGraph`
and re-resolved when its topology epoch moves), the history, the
subscribers, and the optional streaming / probing / topology-sync /
trap-listener planes.

A concrete monitor *is* a ``ReportCore`` plus a sample source; the seam
is "who calls ``rates.update``" plus :meth:`ReportCore._start_source` /
:meth:`ReportCore._stop_source`.  :class:`NetworkMonitor` (below) is the
paper's: it runs on one host of the managed system -- the paper's ran
on the Linux machine L -- and

1. reads the topology from the specification (via a
   :class:`~repro.spec.builder.BuildResult`),
2. resolves which agents and interfaces must be polled so that every
   measurable connection has a counter source,
3. polls them every ``poll_interval`` seconds over genuine SNMP traffic
   with a local :class:`~repro.core.poller.SnmpPoller`,
4. traverses the communication path of every watched host pair, and
5. emits a :class:`~repro.core.report.PathReport` per path per interval
   into its history and to subscribers (e.g. the RM middleware in
   :mod:`repro.rm`).

:class:`~repro.core.distributed.DistributedMonitor` (and, by
inheritance, :class:`~repro.core.hierarchy.HierarchicalMonitor`) feeds
the same core from sequenced remote ingest instead.

Report generation is offset from the polls by ``report_offset`` so each
report sees that cycle's samples; the first report only fires after two
cycles, when counter deltas exist.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.bandwidth import BandwidthCalculator
from repro.core.counters import if_index_of, required_poll_targets
from repro.core.dataflow import BoundPath
from repro.core.discovery import snmp_candidates
from repro.core.health import HealthState
from repro.core.history import HISTORY_HORIZON_S, MeasurementHistory
from repro.core.linkstate import LinkStateRegistry
from repro.core.poller import PollTarget, RateTable, SnmpPoller
from repro.core.report import PathReport
from repro.core.topology_sync import register_topology_metrics
from repro.core.traversal import NoPathError, find_path, pair_redundant
from repro.integrity import (
    IntegrityConfig,
    IntegrityPipeline,
    extra_poll_indexes,
    register_integrity_metrics,
    two_ended_pairs,
)
from repro.probe.scheduler import register_probe_metrics
from repro.snmp.manager import SnmpManager
from repro.spec.builder import BuildResult
from repro.stream.manager import register_stream_metrics
from repro.telemetry import Telemetry
from repro.telemetry.events import PATH_REROUTED
from repro.topology.graph import TopologyGraph
from repro.topology.model import ConnectionSpec, DeviceKind, TopologySpec

ReportCallback = Callable[[PathReport], None]

logger = logging.getLogger("repro.monitor")

DEFAULT_POLL_INTERVAL = 2.0
DEFAULT_REPORT_OFFSET = 0.5
# Staleness bounds, in poll intervals: a sample normally arrives every
# cycle, so age beyond 2.5 intervals means consecutive polls were lost
# (the data is suspect) and beyond 6 it is no longer data.
STALE_AFTER_POLLS = 2.5
DEAD_AFTER_POLLS = 6.0


@dataclasses.dataclass(slots=True)
class _Watch:
    name: str
    src: str
    dst: str
    path: List[ConnectionSpec]
    # The path bound to the calculator's cache entries; re-bound when
    # ``_refresh_watch`` finds the path changed.
    bound: BoundPath
    # Graph topology epoch the path was resolved under; when the graph
    # moves past it the watch re-resolves before measuring.
    epoch: int
    # ``pair_redundant`` on the physical graph: fixed for the watch's life,
    # since physical adjacency never changes.
    redundant: bool


class MonitorError(ValueError):
    """Raised for monitor misconfiguration."""


class ReportCore:
    """Rates -> integrity -> calculator -> watches -> reports, once."""

    def __init__(
        self,
        build: BuildResult,
        host: str,
        poll_interval: float,
        report_offset: float,
        telemetry: Union[bool, Telemetry],
        history_retention_s: float = HISTORY_HORIZON_S,
    ) -> None:
        """``host`` is where the reports are computed (the paper's L; a
        coordinator on the distributed planes): the trap listener and
        the topology-sync SNMP manager bind there."""
        if not 0 < report_offset < poll_interval:
            raise MonitorError(
                f"report_offset must lie inside the poll interval, got "
                f"{report_offset!r} vs {poll_interval!r}"
            )
        self.build = build
        self.spec: TopologySpec = build.spec
        self.network = build.network
        self.sim = self.network.sim
        self.host = self.network.host(host)
        self.poll_interval = poll_interval
        self.report_offset = report_offset
        # One telemetry hub for the whole stack: the manager's RTT
        # quantiles, the poller's cycle spans, the calculator's staleness
        # figures and the middleware's QoS events all share it.  A span
        # slower than the poll interval is by definition a slow cycle
        # (its responses spilled past the next poll).
        if isinstance(telemetry, Telemetry):
            self.telemetry = telemetry
        else:
            self.telemetry = Telemetry(
                clock=lambda: self.sim.now,
                enabled=bool(telemetry),
                slow_threshold=poll_interval,
            )
        # Only the planes that speak SNMP from ``host`` have one: the
        # local poller's, or the one topology sync creates on demand.
        self.manager: Optional[SnmpManager] = None
        # Latest sample per interface: reports read nothing older, and
        # retention is ``history``'s job (MeasurementHistory below).
        self.rates = RateTable()
        self.link_state: Optional[LinkStateRegistry] = None
        self.trap_receiver = None
        self.stale_after = poll_interval * STALE_AFTER_POLLS
        self.dead_after = poll_interval * DEAD_AFTER_POLLS
        # Each path's reports, trimmed to the last ``history_retention_s``
        # seconds so a run of any length holds a bounded history.
        if history_retention_s is None or not 0 < history_retention_s < math.inf:
            raise MonitorError(
                "history_retention_s must be a positive, finite number of "
                f"seconds, got {history_retention_s!r}"
            )
        self.history = MeasurementHistory(retention_s=history_retention_s)
        self._watches: Dict[str, _Watch] = {}
        self._subscribers: List[ReportCallback] = []
        # One shared graph: watch traversal memoizes into it, and matrix
        # consumers (the CLI passes it to BandwidthMatrix) reuse the memos.
        self.graph = TopologyGraph(self.spec)
        registry = self.telemetry.registry
        # Every optional plane's metric families are registered
        # unconditionally so ``stats()`` keys resolve with it disabled.
        register_integrity_metrics(registry)
        register_stream_metrics(registry)
        register_probe_metrics(registry)
        register_topology_metrics(registry)
        self.integrity: Optional[IntegrityPipeline] = None
        self.stream = None  # Optional[MatrixPublisher], see enable_streaming
        self.prober = None  # Optional[ProbeScheduler], see enable_probing
        self.topology_sync = None  # Optional[TopologySync]
        self._report_task = None
        self._m_reports = registry.counter("reports_total", "path reports emitted")
        self._m_reroutes = registry.counter(
            "path_reroutes_total",
            "watched paths re-resolved onto different links",
        )
        self._register_gauges()

    def _build_pipeline(
        self,
        integrity: Union[bool, IntegrityConfig],
        targets: Iterable[PollTarget],
        pairs: Sequence = (),
        health=None,
        degraded_sources=None,
    ) -> None:
        """Integrity pipeline + calculator over ``rates``.

        Called by the concrete monitor once its sample source exists:
        ``targets`` (what the source polls) fixes the interfaces the
        integrity pipeline knows speeds for, ``health`` is the local
        poller's agent tracker and ``degraded_sources`` the remote
        ingest's known-lossy set -- each plane has one of the two.
        """
        if integrity:
            self.integrity = IntegrityPipeline(
                speeds=self._interface_speeds(targets),
                poll_interval=self.poll_interval,
                config=integrity if isinstance(integrity, IntegrityConfig) else None,
                pairs=pairs,
                health=health,
                telemetry=self.telemetry,
                now=self.sim.now,
            )
        self.calculator = BandwidthCalculator(
            self.spec,
            self.rates,
            stale_after=self.stale_after,
            dead_after=self.dead_after,
            health=health,
            telemetry=self.telemetry,
            integrity=self.integrity,
            degraded_sources=degraded_sources,
        )

    def _interface_speeds(self, targets: Iterable[PollTarget]) -> Dict[tuple, float]:
        """Topology-declared speed per polled (node, ifIndex)."""
        speeds: Dict[tuple, float] = {}
        for target in targets:
            node = self.spec.node(target.node)
            for if_index in target.if_indexes:
                speeds[(target.node, if_index)] = node.interfaces[if_index - 1].speed_bps
        return speeds

    def _register_gauges(self) -> None:
        """Function-backed gauges sampled on read."""
        registry = self.telemetry.registry
        registry.gauge(
            "watched_paths", "path watches currently registered"
        ).set_function(lambda: float(len(self._watches)))
        registry.gauge(
            "history_samples", "path reports held in the history"
        ).set_function(lambda: float(self.history.reports_held))
        registry.gauge(
            "history_dropped_samples", "path reports trimmed past the history horizon"
        ).set_function(lambda: float(self.history.reports_dropped))
        registry.gauge(
            "dataflow_cache_hits",
            "connection measurements served from the epoch cache",
        ).set_function(lambda: float(self.calculator.cache_hits))
        registry.gauge(
            "dataflow_recomputes",
            "connection measurements recomputed from the raw tables",
        ).set_function(lambda: float(self.calculator.recomputes))
        registry.gauge(
            "dataflow_dirty_pairs",
            "host pairs crossing a dirty connection in the last matrix snapshot",
        ).set_function(
            lambda: float(self.stream.matrix.dirty_pairs_last) if self.stream else 0.0
        )

    @property
    def started(self) -> bool:
        return self._report_task is not None

    # ------------------------------------------------------------------
    # Link-state notifications (traps)
    # ------------------------------------------------------------------
    def _link_state_registry(self) -> LinkStateRegistry:
        if self.link_state is None:
            addresses = {name: address for name, address, _ in snmp_candidates(self.build)}
            self.link_state = LinkStateRegistry(self.spec, addresses)
            self.calculator.link_state = self.link_state
        return self.link_state

    def enable_trap_listener(self, confirmed: bool = False) -> LinkStateRegistry:
        """Listen for linkDown/linkUp notifications, fold them into reports.

        Starts a receiver on this host's UDP :162, registers every SNMP
        node's agent as a notification source, and marks affected
        connections so downed links report zero available bandwidth
        immediately instead of at the next polling interval.

        ``confirmed=True`` makes agents send acknowledged InformRequests
        instead of fire-and-forget traps: notifications that cannot cross
        a dead link are retransmitted and arrive once connectivity
        returns (the registry discards ones a newer event has overtaken).
        Returns the registry for inspection.  Idempotent.
        """
        if self.trap_receiver is not None:
            return self.link_state
        from repro.snmp.trap import TRAP_COMMUNITY, TrapReceiver  # local: optional feature

        link_state = self._link_state_registry()
        self.trap_receiver = TrapReceiver(self.host, callback=link_state.apply_trap)
        monitor_ip = self.host.primary_ip
        # Every agent notifies under the listener's community, whatever
        # community the spec gave it for reads.
        for agent in self.build.agents.values():
            if confirmed:
                agent.enable_link_informs(monitor_ip, TRAP_COMMUNITY)
            else:
                agent.enable_link_traps(monitor_ip, TRAP_COMMUNITY)
        return link_state

    # ------------------------------------------------------------------
    # Watches
    # ------------------------------------------------------------------
    def watch_path(self, src: str, dst: str, name: Optional[str] = None) -> str:
        """Monitor the communication path between two hosts.

        Returns the watch label used in :attr:`history`.  The path is
        traversed up front from the specification (the paper's design)
        and again whenever the graph's topology epoch moves.
        """
        label = name if name else f"{src}<->{dst}"
        if label in self._watches:
            raise MonitorError(f"path watch {label!r} already exists")
        path = find_path(self.graph, src, dst)
        self._watches[label] = _Watch(
            label, src, dst, path, self.calculator.bind(path),
            self.graph.topology_epoch, pair_redundant(self.graph, src, dst, path),
        )
        logger.info(
            "watching path %s: %d connection(s) %s -> %s", label, len(path), src, dst
        )
        self._watches_moved()
        return label

    def _watch(self, label: str) -> _Watch:
        try:
            return self._watches[label]
        except KeyError:
            raise MonitorError(f"no path watch {label!r}") from None

    def unwatch_path(self, label: str) -> None:
        self._watch(label)  # raises for an unknown label
        del self._watches[label]
        self._watches_moved()

    def _watched_connections(self) -> List[ConnectionSpec]:
        """Every connection a report reads: the watched paths', in watch
        order, or all of them once the all-pairs matrix is attached."""
        if self.stream is not None:
            return list(self.spec.connections)
        read: Dict[tuple, ConnectionSpec] = {}
        for watch in self._watches.values():
            for conn in watch.path:
                read.setdefault((conn.end_a, conn.end_b), conn)
        return list(read.values())

    def _watches_moved(self) -> None:
        """Hook: what the reports read may have changed (a watch came,
        went or was rerouted, or the matrix attached).  The flat monitor
        polls every connection whatever is watched; a tree plane's pool
        follows :meth:`_watched_connections`."""

    def watched_paths(self) -> List[str]:
        """Watch labels in registration order (the probe scheduler's
        round-robin tie-break, so it must not depend on spelling)."""
        return list(self._watches)

    def path_of(self, label: str) -> List[ConnectionSpec]:
        return list(self._watch(label).path)

    def endpoints_of(self, label: str) -> Tuple[str, str]:
        """The watched ``(src, dst)`` host names."""
        watch = self._watch(label)
        return watch.src, watch.dst

    def subscribe(self, callback: ReportCallback) -> None:
        """Receive every future :class:`PathReport` (the RM hook)."""
        self._subscribers.append(callback)

    # ------------------------------------------------------------------
    # Streaming subscriptions
    # ------------------------------------------------------------------
    def enable_streaming(
        self, significance: Union[bool, "QuantileDeadbandFilter", None] = True
    ) -> "MatrixPublisher":
        """Publish matrix changes as typed stream events each cycle.

        Builds a :class:`~repro.core.matrix.BandwidthMatrix` of every host
        pair over this monitor's calculator (sharing its epoch caches and
        topology graph) and a :class:`~repro.stream.MatrixPublisher` on
        top; each report cycle then also publishes the matrix's dirty
        pairs to the publisher's subscribers.  ``significance=True``
        installs the default adaptive
        :class:`~repro.stream.QuantileDeadbandFilter`; pass a filter
        instance to tune it, or ``False``/``None`` to deliver every
        change.  Idempotent -- returns the existing publisher on repeat
        calls.
        """
        if self.stream is not None:
            return self.stream
        from repro.core.matrix import BandwidthMatrix
        from repro.stream import (
            MatrixPublisher,
            QuantileDeadbandFilter,
            SubscriptionManager,
        )

        if significance is True:
            significance = QuantileDeadbandFilter()
        elif significance is False:
            significance = None
        matrix = BandwidthMatrix(self.spec, self.calculator, graph=self.graph)
        self.stream = MatrixPublisher(
            matrix,
            manager=SubscriptionManager(self.telemetry),
            significance=significance,
        )
        self._watches_moved()
        return self.stream

    # ------------------------------------------------------------------
    # Active probing
    # ------------------------------------------------------------------
    def enable_probing(self, **options) -> "ProbeScheduler":
        """Attach a budgeted active-probing plane over the watched paths.

        Builds a :class:`~repro.probe.ProbeScheduler` that sends one UDP
        probe train per round (round interval sized so probe load stays
        under ``budget_fraction`` of the narrowest link on any watched
        path) and cross-validates each train against the passive report;
        confirmed disagreements cap the path's report confidence, emit
        telemetry/stream events, and feed the integrity quarantine.
        ``options`` are forwarded to the scheduler (``budget_fraction``,
        ``count``, ``payload_size``, ``timeout``).  If the monitor is
        already running, probing starts immediately; otherwise it starts
        with :meth:`start`.  Idempotent -- returns the existing
        scheduler on repeat calls (options are then ignored).
        """
        if self.prober is not None:
            return self.prober
        from repro.probe.scheduler import ProbeScheduler

        self.prober = ProbeScheduler(self, **options)
        if self.started:
            self.prober.start()
        return self.prober

    # ------------------------------------------------------------------
    # Self-healing topology
    # ------------------------------------------------------------------
    def enable_topology_sync(self, **options) -> "TopologySync":
        """Keep the active topology in sync with the live network.

        Builds a :class:`~repro.core.topology_sync.TopologySync` running
        periodic discovery rounds: light rounds walk only the switches'
        spanning-tree port states, full rounds re-discover host
        attachments.  Changes flush the path memos (bumping the graph's
        topology epoch), so the next report cycle re-resolves watched
        paths -- retiring the manual ``invalidate_paths()`` contract.
        ``options`` are forwarded (``full_every``); each agent is asked
        under its spec community.  The rounds are SNMP traffic from this host: a
        plane with no local manager gets one here, on first use, so a
        coordinator that never syncs owns no idle socket.  If the
        monitor is already running, syncing starts immediately;
        otherwise it starts with :meth:`start`.  Idempotent -- returns
        the existing sync on repeat calls.
        """
        if self.topology_sync is not None:
            return self.topology_sync
        from repro.core.topology_sync import TopologySync

        if self.manager is None:
            self.manager = SnmpManager(self.host, telemetry=self.telemetry)
        self.topology_sync = TopologySync(self, **options)
        if self.started:
            self.topology_sync.start()
        return self.topology_sync

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _start_source(self, at: float) -> None:
        """Begin feeding ``rates``; the first poll cycle is at ``at``."""
        raise NotImplementedError

    def _stop_source(self) -> None:
        raise NotImplementedError

    def start(self, at: Optional[float] = None) -> None:
        """Begin polling (and reporting one offset later each cycle)."""
        if self.started:
            raise MonitorError("monitor already started")
        first_poll = self.sim.now if at is None else at
        self._start_source(first_poll)
        # First report after the second poll's responses have landed.
        first_report = first_poll + self.poll_interval + self.report_offset
        self._report_task = self.sim.call_every(
            self.poll_interval, self._emit_reports, start=first_report
        )
        # Probing waits for passive data: its first round lands one probe
        # round interval after the first passive report exists.
        if self.prober is not None and not self.prober.started:
            self.prober.start(after=first_report)
        # Topology sync rounds interleave with the polls; the first one
        # fires half a cycle in so STP walks don't collide with the
        # counter polls on the wire.
        if self.topology_sync is not None and not self.topology_sync.started:
            self.topology_sync.start(at=first_poll + self.poll_interval / 2.0)

    def stop(self) -> None:
        self._stop_source()
        if self._report_task is not None:
            self._report_task.cancel()
            self._report_task = None
        if self.prober is not None:
            self.prober.stop()
        if self.topology_sync is not None:
            self.topology_sync.stop()
        if self.manager is not None:
            self.manager.cancel_all()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _measure(self, watch: _Watch) -> PathReport:
        """A report about to be handed to a consumer (hence observed)."""
        if watch.epoch != self.graph.topology_epoch:
            self._refresh_watch(watch)
        report = self.calculator.measure_path(
            watch.bound, watch.src, watch.dst, time=self.sim.now, name=watch.name,
            redundant=watch.redundant,
        )
        return self.calculator.observe_report(report)

    def _emit_reports(self) -> None:
        # Cross-checks run first so a mismatch discovered this cycle is
        # already reflected (trust decay, quarantine) in the reports
        # computed just below.
        if self.integrity is not None:
            self.integrity.run_cross_checks(self.sim.now)
        # Subscribers may add/remove watches in reaction to a report (the
        # application runtime rebinds paths on reallocation); iterate a copy.
        for watch in list(self._watches.values()):
            report = self._apply_probe_cap(self._measure(watch))
            self.history.append(report)
            self._m_reports.inc()
            for callback in self._subscribers:
                callback(report)
        # The stream publisher runs after the watches so push-mode
        # subscribers (the RM stream adapter) observe the same cycle
        # order snapshot consumers do: watches first, then the matrix.
        if self.stream is not None:
            self.stream.publish(self.sim.now)

    def current_report(self, label: str, _probe_cap: bool = True) -> PathReport:
        """Compute a report right now (outside the periodic schedule).

        ``_probe_cap=False`` skips the active-disagreement confidence
        cap -- the probe cross-validator uses it to compare against the
        raw passive figure rather than its own earlier judgement.
        """
        report = self._measure(self._watch(label))
        return self._apply_probe_cap(report) if _probe_cap else report

    def watch_trust(self, label: str) -> Tuple[float, bool]:
        """``(confidence, degraded)`` of the report :meth:`current_report`
        would build right now, without building it (the probe
        scheduler's pick asks this of every watch on every round)."""
        watch = self._watch(label)
        if watch.epoch != self.graph.topology_epoch:
            self._refresh_watch(watch)
        return self._probe_capped(
            label, self.calculator.path_confidence(watch.bound, self.sim.now)
        )

    def _refresh_watch(self, watch: _Watch) -> None:
        """Re-resolve a watch's path after a topology-epoch move.

        The path only actually changes when the failed/blocked link lay
        on it; an unchanged re-resolution is silent.  A pair left with
        no active path keeps its last path -- its reports then show the
        dead connection as down rather than vanishing, which is what a
        QoS consumer must see during a partition.
        """
        watch.epoch = self.graph.topology_epoch
        try:
            new_path = find_path(self.graph, watch.src, watch.dst)
        except NoPathError:
            logger.warning(
                "watch %s: no active path after topology change; keeping "
                "last-known path", watch.name,
            )
            return
        if new_path == watch.path:
            return
        # Render the connection series, not just node names: a failover
        # between parallel uplinks visits the same nodes over different
        # links, and the event must show which.
        old_nodes = tuple(str(conn) for conn in watch.path)
        new_nodes = tuple(str(conn) for conn in new_path)
        watch.path = new_path
        watch.bound = self.calculator.bind(new_path)
        self._m_reroutes.inc()
        self._watches_moved()
        logger.warning(
            "watch %s rerouted: %s ==> %s",
            watch.name, " | ".join(old_nodes), " | ".join(new_nodes),
        )
        self.telemetry.events.publish(
            PATH_REROUTED,
            self.sim.now,
            watch=watch.name,
            src=watch.src,
            dst=watch.dst,
            old_path=" | ".join(old_nodes),
            new_path=" | ".join(new_nodes),
            topology_epoch=self.graph.topology_epoch,
        )
        if self.stream is not None:
            from repro.stream.events import PathRerouted, pair_key

            self.stream.manager.deliver(
                PathRerouted(
                    pair=pair_key(watch.src, watch.dst),
                    time=self.sim.now,
                    epoch=self.stream.clock.epoch,
                    watch=watch.name,
                    old_path=old_nodes,
                    new_path=new_nodes,
                    topology_epoch=self.graph.topology_epoch,
                )
            )

    def _probe_capped(self, label: str, confidence: float) -> Tuple[float, bool]:
        """``(confidence, degraded)`` of a report on ``label`` once the
        cap is applied that holds while the probe plane disputes it."""
        if self.prober is not None:
            cap = self.prober.confidence_cap_for(label)
            if cap is not None and confidence > cap:
                return cap, True
        return confidence, confidence < 1.0

    def _apply_probe_cap(self, report: PathReport) -> PathReport:
        confidence, degraded = self._probe_capped(report.label, report.confidence)
        if confidence == report.confidence:
            return report
        return dataclasses.replace(report, confidence=confidence, degraded=degraded)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Operational counters, sourced from the telemetry registry.

        The keys are a stable public surface (tests and operators rely on
        them) and the same on every plane; each maps onto the registry
        metric that owns the underlying count.  Concrete monitors add
        their sample source's keys.
        """
        value = self.telemetry.registry.value
        return {
            "reports": value("reports_total"),
            "history_samples": value("history_samples"),
            "history_dropped": value("history_dropped_samples"),
            "integrity_violations": value("integrity_violations_total"),
            "integrity_rejected": value("integrity_samples_rejected_total"),
            "integrity_quarantined": value("quarantined_interfaces"),
            "cross_check_mismatches": value("integrity_cross_check_mismatches_total"),
            "cache_hits": value("dataflow_cache_hits"),
            "recomputes": value("dataflow_recomputes"),
            "dirty_pairs": value("dataflow_dirty_pairs"),
            "stream_subscribers": value("stream_subscribers"),
            "stream_events_delivered": value("stream_events_delivered_total"),
            "stream_events_suppressed": value("stream_events_suppressed_total"),
            "stream_events_dropped": value("stream_events_dropped_total"),
            "probe_trains": value("probe_trains_total"),
            "probe_packets_sent": value("probe_packets_sent_total"),
            "probe_packets_lost": value("probe_packets_lost_total"),
            "probe_bytes_sent": value("probe_bytes_sent_total"),
            "probe_disagreements": value("probe_disagreements_total"),
            "probe_recoveries": value("probe_recoveries_total"),
            "probe_active_disagreements": value("probe_active_disagreements"),
            "topology_rounds": value("topology_rounds_total"),
            "topology_full_rounds": value("topology_full_rounds_total"),
            "topology_changes": value("topology_changes_total"),
            "path_reroutes": value("path_reroutes_total"),
            "blocked_connections": value("topology_blocked_connections"),
        }


class NetworkMonitor(ReportCore):
    """SNMP-based bandwidth monitor for a specified real-time system."""

    def __init__(
        self,
        build: BuildResult,
        monitor_host: str,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        poll_jitter: float = 0.05,
        report_offset: float = DEFAULT_REPORT_OFFSET,
        seed: int = 0,
        telemetry: Union[bool, Telemetry] = True,
        history_retention_s: float = HISTORY_HORIZON_S,
        integrity: Union[bool, IntegrityConfig] = True,
        cross_check: bool = False,
    ) -> None:
        """``integrity``: run every sample through the measurement-
        integrity pipeline (True: default knobs; an
        :class:`~repro.integrity.IntegrityConfig` tunes them; False:
        trust the agents like the paper did).  ``cross_check``: also
        poll the *secondary* end of every two-ended connection (plus
        ifSpeed) and compare both ends' octet rates each report cycle.
        Off by default because the extra polling itself adds SNMP
        traffic to the measured links."""
        super().__init__(
            build, monitor_host, poll_interval, report_offset, telemetry,
            history_retention_s,
        )
        self.manager = SnmpManager(self.host, telemetry=self.telemetry)
        self.cross_check = cross_check
        cross_pairs = two_ended_pairs(self.spec) if cross_check else []
        self.poller = SnmpPoller(
            self.manager,
            targets=self._build_targets(cross_pairs),
            interval=poll_interval,
            jitter=poll_jitter,
            seed=seed,
            rate_table=self.rates,
            telemetry=self.telemetry,
            poll_mode="get",  # the paper's layout: one GET per agent per cycle
        )
        #: The per-agent health tracker (reachability state machine).
        self.health = self.poller.health
        # Let the manager label RTT samples by agent name, not IP.
        for target in self.poller.targets:
            self.manager.agent_labels[target.address] = target.node
        # The integrity pipeline validates every sample before it
        # reaches the rate table and quarantines untrustworthy
        # interfaces; here it sits inside the poller, which has the raw
        # counter snapshots the regression diagnosis reads.
        self._build_pipeline(
            integrity, self.poller.targets, pairs=cross_pairs, health=self.health
        )
        self.poller.integrity = self.integrity
        self._register_health_gauges()

    def _register_health_gauges(self) -> None:
        """Function-backed gauges sampling the health tracker on read."""
        registry = self.telemetry.registry
        health = self.health
        for state in HealthState:
            gauge = registry.gauge(
                f"agents_{state.value}",
                f"polled agents currently in the {state.value} state",
            )
            gauge.set_function(lambda s=state: float(health.count(s)))
        registry.gauge(
            "polls_suppressed", "routine polls suppressed by the circuit breaker"
        ).set_function(lambda: float(health.polls_suppressed))

    # ------------------------------------------------------------------
    # Target construction
    # ------------------------------------------------------------------
    def _build_targets(self, cross_pairs: Sequence) -> List[PollTarget]:
        """One target per SNMP node, covering every measurable connection.

        In cross-check mode the secondary end of every two-ended
        connection is polled too (the redundancy the cross-checker
        compares), and every target also reads ifSpeed so the
        speed-mismatch validator has the agent's own claim.
        """
        needed = required_poll_targets(self.spec, list(self.spec.connections))

        def also_poll(node_name: str, if_index: int) -> None:
            indexes = needed.setdefault(node_name, [])
            if if_index not in indexes:
                indexes.append(if_index)
                indexes.sort()

        # Inter-switch uplinks are polled at BOTH ends.  The counter
        # source alone leaves the far switch's port invisible, yet a
        # redundant uplink can fail (or be spanning-tree blocked) in a
        # way only the far side observes; link-state tracking must see
        # linkDown from either end.
        for conn in self.spec.connections:
            ends = conn.endpoints()
            nodes = [self.spec.node(end.node) for end in ends]
            if not all(
                n.kind is DeviceKind.SWITCH and n.snmp_enabled for n in nodes
            ):
                continue
            for end, node in zip(ends, nodes):
                also_poll(node.name, if_index_of(node, end.interface))
        for node_name, extra in extra_poll_indexes(cross_pairs).items():
            for if_index in extra:
                also_poll(node_name, if_index)
        targets: List[PollTarget] = []
        for node_name, if_indexes in sorted(needed.items()):
            node = self.spec.node(node_name)
            targets.append(
                PollTarget(
                    node=node_name,
                    address=self.network.ip_of(node_name),
                    if_indexes=if_indexes,
                    community=node.snmp_community,
                    include_speed=self.cross_check,
                )
            )
        return targets

    def agent_health(self) -> Dict[str, str]:
        """Current health state name per polled agent."""
        return {
            target.node: self.health.state(target.node).value
            for target in self.poller.targets
        }

    def enable_oper_status_tracking(self) -> LinkStateRegistry:
        """Poll ifOperStatus as a link-state source (trap backstop).

        Works with or without the trap listener: each polling cycle also
        reads every tracked interface's operational status and folds it
        into the link-state registry.  Detection latency is one polling
        interval -- slower than traps, but immune to trap loss.  A trap
        and a poll can disagree transiently around a transition; the next
        cycle converges them.  Idempotent.
        """
        link_state = self._link_state_registry()
        for target in self.poller.targets:
            target.include_oper_status = True
        self.poller.on_status = link_state.apply_oper_status
        return link_state

    # ------------------------------------------------------------------
    # Sample source: the local poller
    # ------------------------------------------------------------------
    def _start_source(self, at: float) -> None:
        logger.info(
            "monitor on %s starting at t=%.3f: %d poll target(s), interval %.2fs",
            self.host.name, at, len(self.poller.targets), self.poll_interval,
        )
        self.poller.start(first_poll_at=at)

    def _stop_source(self) -> None:
        self.poller.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """The core's keys plus the local poller's and SNMP manager's."""
        value = self.telemetry.registry.value
        return {
            "poll_cycles": value("poll_cycles_total"),
            "poll_errors": value("poll_errors_total"),
            "poll_timeout_errors": value("poll_timeout_errors_total"),
            "poll_error_responses": value("poll_error_responses_total"),
            "poll_parse_errors": value("poll_parse_errors_total"),
            "polls_suppressed": value("polls_suppressed"),
            "agent_restarts": value("agent_restarts_total"),
            "agents_healthy": value("agents_healthy"),
            "agents_dead": value("agents_dead"),
            "samples": value("poll_samples_total"),
            "snmp_requests": value("snmp_requests_total"),
            "snmp_responses": value("snmp_responses_total"),
            "snmp_timeouts": value("snmp_timeouts_total"),
            "snmp_retransmissions": value("snmp_retransmissions_total"),
            **super().stats(),
        }
