"""Per-connection and per-path bandwidth calculation (paper §3.3).

The paper's two rules:

**Switch rule** -- "a switch does not forward packets for one host to other
hosts connected to the same switch.  Hence, the amount of bandwidth used
on a host connected to a switch is simply the amount of data transmitted
as reported by SNMP polling from either the host or the switch.  If the
traffic reported is t_i, then we simply have u_i = t_i."

**Hub rule** -- "for hosts connected to hubs, all packets that go through
the hub will be sent to every host connected to the hub.  Therefore, the
amount of bandwidth used for a host connected to a hub is the sum of all
the data sent to the hub ... u_i = t_1 + t_2 + ... + t_n.  Notice that u_i
cannot exceed the maximum speed of the hub."

A connection's traffic figure ``t`` is the bidirectional byte rate at its
counter source (in + out octets per second).  For the hub sum, the summed
set is the hub's *host-facing* connections: a frame entering through the
uplink and delivered to host j is counted once, at t_j, and the shared
medium indeed carries each frame once.  Every connection touching the hub
(host legs and uplinks alike) shares the same u, because they share the
same medium.

Path figures: available ``A = min_i (m_i - u_i)``; used = ``max_i u_i``
(the paper's plotted "measured traffic between hosts" -- the busiest
segment along the path).  A report is composed from per-connection cache
entries bound to its path (:meth:`BandwidthCalculator.bind`), each
measured at most once per instant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.counters import CounterSource, hub_host_connections, resolve_counter_source
from repro.core.dataflow import BoundPath, ConnCacheEntry
from repro.core.poller import InterfaceRates, RateTable
from repro.core.report import ConnectionMeasurement, PathReport
from repro.telemetry import Telemetry
from repro.telemetry.events import REPORT_STATUS
from repro.topology.model import ConnectionSpec, DeviceKind, TopologySpec


class BandwidthCalculator:
    """Turns a :class:`RateTable` into connection/path measurements.

    Staleness-aware when ``stale_after`` is set (the monitor sets it):
    samples older than ``stale_after`` mark their connection stale and
    the path degraded; older than ``dead_after`` (or sourced from an
    agent the health tracker says is DEAD) they stop counting as data at
    all, and a path left without trustworthy figures reports
    ``unavailable`` instead of a stale number.

    Measurements are memoized per connection on an epoch token drawn
    from every input -- rate-table ingest, link-state flips, quarantine
    enter/release, health transitions (see :mod:`repro.core.dataflow`).
    A holder binds its path to the cache entries once (:meth:`bind`); a
    report is then a validation (:meth:`refresh`) followed by a
    composition (:meth:`compose`).  Validation brings each entry up to
    date at most once per instant: untouched while nothing moved,
    re-aged when only the report instant moved, re-tokenised only when
    an input clock moved -- and then re-timed to the new sample when
    only its ingest epoch moved (its rates did not), measured afresh
    only when what its values rest on moved.  Composition reads the
    entries and builds the report, nothing else.  :meth:`measure_path` is the two in a row; the
    all-pairs matrix validates its distinct connections once per
    snapshot (41 on the ledger's mesh) and then composes each of its
    pairs (630) from them.  Each measurement carries its
    ``a_i = m_i - u_i`` and each report its ``A = min a_i``, computed
    once when built, so the pairs that share a connection share its
    ``a_i``.  Hub aggregates are computed once per hub per epoch and
    shared by every leg.  The cache may only ever change how much work
    is done: outputs are bit-identical to ``measure_path(...,
    fresh=True)``, the from-scratch reference (enforced by
    ``tests/test_dataflow.py``).
    """

    def __init__(
        self,
        spec: TopologySpec,
        rates: RateTable,
        stale_after: Optional[float] = None,
        dead_after: Optional[float] = None,
        health=None,
        telemetry: Optional[Telemetry] = None,
        integrity=None,
        degraded_sources=None,
    ) -> None:
        """``health``: optional
        :class:`~repro.core.health.AgentHealthTracker` consulted for the
        counter-source agents.  ``stale_after``/``dead_after``: sample
        ages (seconds) beyond which data is degraded / untrustworthy.
        ``telemetry``: optional hub; reports handed to a consumer (see
        :meth:`observe_report`) are then traced, their staleness feeds a
        histogram, and per-path trust-status changes
        (fresh/degraded/unavailable) publish events.
        ``integrity``: optional
        :class:`~repro.integrity.IntegrityPipeline`; connections whose
        counter source it quarantines are flagged on the measurement and
        capped at 0.5 confidence (their withheld samples then age into
        the ordinary staleness decay).  ``degraded_sources``: optional
        :class:`~repro.core.dataflow.DegradedSourceSet`; sources the
        distributed plane flags as known-lossy (worker lease lost,
        abandoned sequence gap) are capped the same way -- the plane
        *knows* newer data existed and was dropped, so the last sample
        must not be presented at full confidence however young it is."""
        if (
            stale_after is not None
            and dead_after is not None
            and dead_after <= stale_after
        ):
            raise ValueError(
                f"dead_after {dead_after!r} must exceed stale_after {stale_after!r}"
            )
        self.spec = spec
        self.rates = rates
        # A LinkStateRegistry, assigned by the monitor when link traps go
        # on: connections it marks down report zero availability, rule "down".
        self.link_state = None
        self.stale_after = stale_after
        self.dead_after = dead_after
        self.health = health
        self.telemetry = telemetry
        self.integrity = integrity
        self.degraded_sources = degraded_sources
        self._last_status: Dict[str, str] = {}  # path label -> trust status
        if telemetry is not None:
            registry = telemetry.registry
            self._m_reports_degraded = registry.counter(
                "reports_degraded_total", "path reports resting on stale data"
            )
            self._m_reports_unavailable = registry.counter(
                "reports_unavailable_total",
                "path reports with no trustworthy figures at all",
            )
            self._h_staleness = registry.histogram(
                "report_staleness_seconds",
                "age of the stalest sample behind each path report",
            )
        self._source_cache: Dict[Tuple, Optional[CounterSource]] = {}
        self._capacity: Dict[Tuple, float] = {}  # bytes/s, per connection
        # Hub membership: hub name -> its host-facing connections.
        self._hub_host_conns: Dict[str, List[ConnectionSpec]] = hub_host_connections(spec)
        # --- incremental dataflow state ---------------------------------
        self.lookups = 0  # entries validated, plus entries a matrix composed
        self.recomputes = 0
        self._entries: Dict[Tuple, ConnCacheEntry] = {}
        self._hub_by_conn: Dict[Tuple, Optional[str]] = {}
        self._hub_leg_keys: Dict[str, Tuple] = {}
        # hub -> (rates token, total, oldest sample, any_measured)
        self._hub_cache: Dict[str, Tuple] = {}
        # Validation stamps (see _revalidate): ``_stamp`` moves with the
        # report instant or any input clock, ``_inputs_stamp`` is its
        # value when an input clock last moved.
        self._input_clocks: Optional[Tuple] = None
        self._now: Optional[float] = None
        self._stamp = 0
        self._inputs_stamp = 0

    @property
    def cache_hits(self) -> int:
        """Entry lookups served without recomputing from the raw tables."""
        return self.lookups - self.recomputes

    # ------------------------------------------------------------------
    # Per-connection traffic
    # ------------------------------------------------------------------
    def counter_source(self, conn: ConnectionSpec) -> Optional[CounterSource]:
        key = (conn.end_a, conn.end_b)  # conn.endpoints(), without the call
        if key not in self._source_cache:
            self._source_cache[key] = resolve_counter_source(self.spec, conn)
        return self._source_cache[key]

    def raw_traffic(self, conn: ConnectionSpec) -> Optional[InterfaceRates]:
        """Latest rate sample at the connection's counter source."""
        source = self.counter_source(conn)
        if source is None:
            return None
        return self.rates.latest(source.node, source.if_index)

    def hub_of(self, conn: ConnectionSpec) -> Optional[str]:
        """The hub this connection touches, if any."""
        key = (conn.end_a, conn.end_b)
        try:
            return self._hub_by_conn[key]
        except KeyError:
            pass
        hub: Optional[str] = None
        for end in key:
            if self.spec.node(end.node).kind is DeviceKind.HUB:
                hub = end.node
                break
        self._hub_by_conn[key] = hub
        return hub

    # ------------------------------------------------------------------
    # Epoch tokens (incremental dataflow)
    # ------------------------------------------------------------------
    def _hub_rates_token(self, hub: str) -> Tuple:
        """Per-leg rate-table epochs of a hub's host legs, in sum order."""
        keys = self._hub_leg_keys.get(hub)
        if keys is None:
            resolved = []
            for leg in self._hub_host_conns.get(hub, []):
                source = self.counter_source(leg)
                resolved.append(source.key() if source is not None else None)
            keys = self._hub_leg_keys[hub] = tuple(resolved)
        return tuple(self.rates.epoch(*k) if k is not None else 0 for k in keys)

    def connection_token(self, entry: ConnCacheEntry) -> Tuple:
        """The epochs of every input ``_compute_measurement`` reads for
        ``entry``'s connection: the ingest epochs of the samples it reads,
        then the epochs its values rest on -- the rate epoch of a switch
        connection's sample (a hub sum rests on every ingest of its legs)
        and each collaborator's.

        A measurement computed under one token is valid exactly as long
        as the token is unchanged; one whose token moved in its first
        part alone is valid but for the time of its sample.
        """
        source, hub = entry.resolved
        if hub is not None:
            rates_part: object = self._hub_rates_token(hub)
            values_part = rates_part
        elif source is not None:
            rates_part = self.rates.epoch(source.node, source.if_index)
            values_part = self.rates.rate_epoch(source.node, source.if_index)
        else:
            rates_part = values_part = 0
        link = self.link_state
        token = (rates_part, values_part, 0 if link is None else link.epoch_of(entry.conn))
        if source is None:  # no counter source to ask the others about
            return token + (0, 0, 0)
        node, if_index = source.node, source.if_index
        integrity, health, degraded = self.integrity, self.health, self.degraded_sources
        return token + (
            0 if integrity is None else integrity.epoch_of(node, if_index),
            0 if health is None else health.epoch_of(node),
            0 if degraded is None else degraded.epoch_of(node, if_index),
        )

    def _revalidate(self, now: Optional[float]) -> None:
        """Advance the validation stamps for a report at instant ``now``.

        Run once per :meth:`refresh`: per watch report, per probe pick,
        per matrix snapshot.  *An input clock moved* (rates, link state,
        health, integrity, degraded sources): both stamps advance and
        every entry re-reads its token before it is used again.  *Only
        the instant moved*: ``_stamp`` alone advances, tokens are known
        current and entries merely re-derive their ages.  Nothing moved:
        entries already validated are reusable on a single int compare.
        """
        ls, health = self.link_state, self.health
        integ, degraded = self.integrity, self.degraded_sources
        clocks = (
            self.rates.clock,
            ls.clock if ls is not None else 0,
            health.clock if health is not None else 0,
            integ.clock if integ is not None else 0,
            degraded.clock if degraded is not None else 0,
        )
        if clocks != self._input_clocks:
            self._input_clocks = clocks
            self._now = now
            self._stamp += 1
            self._inputs_stamp = self._stamp
        elif now != self._now:
            self._now = now
            self._stamp += 1

    # ------------------------------------------------------------------
    # The two rules
    # ------------------------------------------------------------------
    def _hub_sum(self, hub: str) -> Tuple[float, Optional[InterfaceRates], bool]:
        """(summed host-leg traffic, oldest sample, any leg measured).

        The sum is as old as its oldest term: one leg's agent gone silent
        leaves its last sample in the total, so that sample's age is the
        hub's (its staleness, and so its confidence)."""
        total = 0.0
        oldest: Optional[InterfaceRates] = None
        any_measured = False
        for leg in self._hub_host_conns.get(hub, []):
            sample = self.raw_traffic(leg)
            if sample is None:
                continue
            any_measured = True
            total += sample.total_bytes_per_s
            if oldest is None or sample.time < oldest.time:
                oldest = sample
        return total, oldest, any_measured

    def used_bandwidth(
        self, conn: ConnectionSpec, cached: bool = False
    ) -> Tuple[Optional[float], str, Optional[InterfaceRates]]:
        """(u_i in bytes/s, rule name, underlying sample).

        Returns ``(None, "unmeasured", None)`` when no counter source (or
        no sample yet) exists for the inputs the rule needs.  ``cached``
        shares the hub aggregate across legs: it is computed once per hub
        per rates epoch and reused by every connection touching that hub
        (same summation order, so the float result is bit-identical).
        """
        hub = self.hub_of(conn)
        if hub is None:
            sample = self.raw_traffic(conn)
            if sample is None:
                return None, "unmeasured", None
            return sample.total_bytes_per_s, "switch", sample
        # Hub rule: sum the host legs, clamp to the hub speed.
        if cached:
            token = self._hub_rates_token(hub)
            memo = self._hub_cache.get(hub)
            if memo is None or memo[0] != token:
                memo = self._hub_cache[hub] = (token, *self._hub_sum(hub))
            _, total, oldest, any_measured = memo
        else:
            total, oldest, any_measured = self._hub_sum(hub)
        if not any_measured:
            return None, "unmeasured", None
        hub_speed_bytes = self.spec.node(hub).interfaces[0].speed_bps / 8.0
        return min(total, hub_speed_bytes), "hub", oldest

    # ------------------------------------------------------------------
    # Cache entries
    # ------------------------------------------------------------------
    def bind(self, path) -> BoundPath:
        """Resolve a traversed path to its cache entries, once.

        The only place ``conn.endpoints()`` is hashed on the report path:
        whoever holds a path for longer than one call (a watch, a matrix
        pair) keeps the bound form and hands it to :meth:`measure_path`.
        """
        entries = self._entries
        bound = []
        for conn in path:
            key = conn.endpoints()
            entry = entries.get(key)
            if entry is None:
                entry = entries[key] = ConnCacheEntry(
                    conn, (self.counter_source(conn), self.hub_of(conn))
                )
            bound.append(entry)
        return BoundPath(bound)

    def refresh(self, bound: BoundPath, now: Optional[float]) -> None:
        """Bring every entry of ``bound`` up to date at instant ``now``.

        One :meth:`_revalidate` for the lot; an entry already validated at
        the current stamp costs one int compare.  Each entry counts as
        one of :attr:`lookups`.
        """
        self._revalidate(now)
        self.lookups += len(bound)
        stamp = self._stamp
        for entry in bound:
            if entry.stamp != stamp:
                self._validate(entry, now)

    def _validate(self, entry: ConnCacheEntry, now: Optional[float]) -> None:
        """The per-entry routine behind :meth:`refresh`."""
        sample = None
        if entry.stamp < self._inputs_stamp:
            # An input clock moved since this entry was last looked at.
            token = self.connection_token(entry)
            last, entry.token = entry.token, token
            if last is None or token[1:] != last[1:]:
                measurement = self._compute_measurement(entry.conn, now, cached=True)
                entry.now = now
                entry.measurement = measurement
                entry.confidence = self._connection_confidence(measurement)
                entry.stamp = self._stamp
                self.recomputes += 1
                return
            if token[0] != last[0] and entry.measurement.rule == "switch":
                # A newer sample with the same rates: only its time moved.
                source = entry.resolved[0]
                sample = self.rates.latest(source.node, source.if_index)
        if sample is not None or entry.now != now:
            # Same values, a different instant or sample time: only the
            # time fields (and with them the confidence) can differ.
            measurement = self._refresh_measurement(entry.measurement, now, sample)
            if measurement is not entry.measurement:
                entry.measurement = measurement
                entry.confidence = self._connection_confidence(measurement)
            entry.now = now
        entry.stamp = self._stamp

    def measure_connection(
        self, conn: ConnectionSpec, now: Optional[float] = None
    ) -> ConnectionMeasurement:
        """The connection's measurement at instant ``now``."""
        bound = self.bind((conn,))
        self.refresh(bound, now)
        return bound[0].measurement

    def _refresh_measurement(
        self, m: ConnectionMeasurement, now: Optional[float], sample=None
    ) -> ConnectionMeasurement:
        """Re-derive the time fields of a cached measurement at ``now``:
        its sample's age and staleness and, given ``sample`` -- a newer
        sample with the rates ``m`` was computed from -- that sample's
        time and interval.

        Must mirror :meth:`_compute_measurement` exactly: age is
        ``max(0, now - sample_time)`` (``InterfaceRates.age``), staleness
        the same threshold comparison.  A moved field builds the new
        measurement through its constructor, as the first one was.
        """
        if sample is None:
            time, interval = m.sample_time, m.sample_interval
        else:
            time, interval = sample.time, sample.interval
        age = max(0.0, now - time) if (time is not None and now is not None) else None
        stale = (
            age is not None
            and self.stale_after is not None
            and age > self.stale_after
        )
        if (
            age == m.sample_age and stale == m.stale
            and time == m.sample_time and interval == m.sample_interval
        ):
            return m
        return ConnectionMeasurement(
            connection=m.connection,
            capacity_bps=m.capacity_bps,
            used_bps=m.used_bps,
            source=m.source,
            rule=m.rule,
            sample_time=time,
            sample_interval=interval,
            sample_age=age,
            stale=stale,
            quarantined=m.quarantined,
            degraded_source=m.degraded_source,
        )

    def _compute_measurement(
        self, conn: ConnectionSpec, now: Optional[float], cached: bool
    ) -> ConnectionMeasurement:
        key = (conn.end_a, conn.end_b)  # conn.endpoints(), without the call
        capacity_bytes = self._capacity.get(key)
        if capacity_bytes is None:
            capacity_bytes = self._capacity[key] = self.spec.effective_bandwidth(conn) / 8.0
        if self.link_state is not None and self.link_state.is_down(conn):
            source = self.counter_source(conn)
            return ConnectionMeasurement(
                connection=conn,
                capacity_bps=capacity_bytes,
                used_bps=0.0,
                source=source.endpoint if source is not None else None,
                rule="down",
            )
        used, rule, sample = self.used_bandwidth(conn, cached)
        source = self.counter_source(conn)
        age = sample.age(now) if (sample is not None and now is not None) else None
        stale = (
            age is not None
            and self.stale_after is not None
            and age > self.stale_after
        )
        quarantined = (
            self.integrity is not None
            and source is not None
            and self.integrity.is_quarantined(source.node, source.if_index)
        )
        degraded_source = (
            self.degraded_sources is not None
            and source is not None
            and self.degraded_sources.is_degraded(source.node, source.if_index)
        )
        return ConnectionMeasurement(
            connection=conn,
            capacity_bps=capacity_bytes,
            used_bps=used if used is not None else 0.0,
            source=source.endpoint if source is not None else None,
            rule=rule,
            sample_time=sample.time if sample is not None else None,
            sample_interval=sample.interval if sample is not None else None,
            sample_age=age,
            stale=stale,
            quarantined=quarantined,
            degraded_source=degraded_source,
        )

    # ------------------------------------------------------------------
    # Data quality
    # ------------------------------------------------------------------
    def _connection_confidence(self, m: ConnectionMeasurement) -> Optional[float]:
        """0..1 trust in one connection's figures; None = not expected.

        - "down" is *fresh* knowledge (the link-state registry said so).
        - No counter source at all: structurally unmeasured, excluded
          (the report's ``complete`` flag already covers it).
        - Source agent DEAD, or sample older than ``dead_after``: 0.0.
        - Sample between ``stale_after`` and ``dead_after``: linear decay.
        - Expected source but no sample yet: 0.5 (degraded, not dead).
        - Quarantined counter source: capped at 0.5 -- whatever its age
          says, a source the integrity pipeline distrusts is never fully
          believed, and as its withheld samples age the ordinary decay
          below takes it the rest of the way down.
        - Degraded source (distributed plane knows newer data was lost):
          same 0.5 cap -- the sample may be young, but it is provably not
          the latest data the network produced.
        """
        if m.rule == "down":
            return 1.0
        if m.source is None:
            return None
        if self.health is not None and self.health.is_dead(m.source.node):
            return 0.0
        capped = m.quarantined or m.degraded_source
        if m.sample_age is None:
            return 0.25 if capped else 0.5
        if self.stale_after is None or m.sample_age <= self.stale_after:
            return 0.5 if capped else 1.0
        if self.dead_after is None:
            return 0.5
        if m.sample_age >= self.dead_after:
            return 0.0
        span = self.dead_after - self.stale_after
        decayed = max(0.0, 1.0 - (m.sample_age - self.stale_after) / span)
        return min(decayed, 0.5) if capped else decayed

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def measure_path(
        self,
        path,
        src: str,
        dst: str,
        time: float,
        name: Optional[str] = None,
        fresh: bool = False,
        redundant: bool = False,
    ) -> PathReport:
        """A :class:`PathReport` for an already-traversed path.

        ``path`` is a connection list or, from a caller that holds the
        path for longer than one call, its :meth:`bind` result (a plain
        list is bound on the way in).
        NOTE: all figures are in **bytes/second** (the paper reports
        KB/s); capacities are converted from the spec's bits/second.
        ``fresh=True`` recomputes every connection of a plain connection
        list from the raw tables (the from-scratch reference, bypassing
        every cache).
        ``redundant`` is the pair's physical-redundancy flag (the caller
        resolves it from the topology graph; see
        :func:`repro.core.traversal.pair_redundant`).
        """
        if fresh:
            entries = []
            for conn in path:
                m = self._compute_measurement(conn, time, cached=False)
                entries.append(
                    ConnCacheEntry(
                        conn, measurement=m, confidence=self._connection_confidence(m)
                    )
                )
        else:
            entries = path if type(path) is BoundPath else self.bind(path)
            self.refresh(entries, time)
        return self.compose(entries, src, dst, time, name, redundant)

    def compose(
        self,
        entries,
        src: str,
        dst: str,
        time: float,
        name: Optional[str],
        redundant: bool,
    ) -> PathReport:
        """The :class:`PathReport` on ``entries``, each already brought up
        to date at ``time``: the one way a report is composed.

        :meth:`measure_path` is :meth:`refresh` plus this; the matrix
        refreshes its distinct connections once per snapshot and then
        calls this alone for every pair it recomposes.  Reads only what
        the entries hold -- no clock, no token, no measurement.
        """
        measurements = []
        freshness: Optional[float] = None  # max of the known ages
        confidence: Optional[float] = None  # min of the expected sources'
        for entry in entries:
            m = entry.measurement
            measurements.append(m)
            age = m.sample_age
            if age is not None and (freshness is None or age > freshness):
                freshness = age
            c = entry.confidence
            if c is not None and (confidence is None or c < confidence):
                confidence = c
        measured = confidence is not None
        if not measured:
            confidence = 1.0
        return PathReport(
            src=src,
            dst=dst,
            time=time,
            connections=tuple(measurements),
            name=name,
            freshness=freshness,
            confidence=confidence,
            degraded=confidence < 1.0,
            unavailable=confidence <= 0.0 and measured,
            redundant=redundant,
        )

    def path_confidence(self, bound: BoundPath, now: float) -> float:
        """The ``confidence`` :meth:`measure_path` would report for
        ``bound`` at ``now``, without building the report."""
        self.refresh(bound, now)
        confidence: Optional[float] = None
        for entry in bound:
            c = entry.confidence
            if c is not None and (confidence is None or c < confidence):
                confidence = c
        return 1.0 if confidence is None else confidence

    def observe_report(self, report: PathReport) -> PathReport:
        """Record telemetry for a report handed to a consumer.

        Paid per report somebody receives (a watch report, a
        ``current_report``), never per matrix cell: a span carrying the
        report's status, its staleness in the histogram, the degraded /
        unavailable counters, and an event when the path's trust status
        changed.  Returns ``report``.
        """
        tel = self.telemetry
        if tel is None or not tel.enabled:
            return report
        label = report.label
        if report.freshness is not None:
            self._h_staleness.observe(report.freshness)
        if report.unavailable:
            self._m_reports_unavailable.inc()
        elif report.degraded:
            self._m_reports_degraded.inc()
        tel.tracer.begin("path_report", path=label).finish(
            status=report.status, connections=len(report.connections)
        )
        previous = self._last_status.get(label, "fresh")
        if report.status != previous:
            self._last_status[label] = report.status
            tel.events.publish(
                REPORT_STATUS,
                report.time,
                path=label,
                old=previous,
                new=report.status,
                confidence=round(report.confidence, 3),
            )
        return report
