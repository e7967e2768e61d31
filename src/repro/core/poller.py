"""Periodic SNMP polling and counter-to-rate conversion (paper §3.1).

"Because the polling results are cumulative numbers, this data has to be
polled periodically.  The old value is subtracted from the new one to
determine statistics for the polling interval.  The time interval between
two polling processes can be found using the system uptime data."

Fidelity notes:

- The **interval denominator is the sysUpTime delta**, not the poll
  schedule: if a response is delayed or a poll is lost, the next delta
  simply covers a longer (exactly measured) interval.
- Counter32 values wrap at 2^32; deltas are taken modulo 2^32, correct
  for at most one wrap per interval.
- Each poll fetches sysUpTime plus the six traffic counters for every
  interface of interest on that agent, like the paper's Table 1: as one
  GET naming every instance, or as a GetBulk column walk -- the same
  :meth:`SnmpManager.poll_interfaces` call either way, answering with
  per-column integer tables that one parser turns into samples.
- Poll scheduling can carry seeded jitter, and agents add processing
  delay, so octets occasionally land in the *next* interval -- the paper's
  "abnormally small value followed by an abnormally large one".
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.health import AgentHealthTracker
from repro.simnet.address import IPv4Address
from repro.snmp.ber import TAG_COUNTER32, TAG_GAUGE32, TAG_INTEGER
from repro.snmp.errors import SnmpErrorResponse, SnmpTimeout
from repro.snmp.manager import SnmpManager, interface_oids
from repro.snmp.mib import (
    IF_IN_OCTETS,
    IF_IN_UCAST_PKTS,
    IF_OPER_STATUS,
    IF_OUT_NUCAST_PKTS,
    IF_OUT_OCTETS,
    IF_OUT_UCAST_PKTS,
    IF_IN_NUCAST_PKTS,
    IF_SPEED,
    IF_STATUS_UP,
    SYS_UPTIME,
)
from repro.snmp.oid import Oid
from repro.telemetry import Telemetry
from repro.telemetry.events import AGENT_RESTART
from repro.telemetry.trace import NULL_SPAN

# The per-interface columns polled each cycle (paper Table 1 uses octets
# and packet counters in both directions).
_COLUMNS = (
    IF_IN_OCTETS,
    IF_OUT_OCTETS,
    IF_IN_UCAST_PKTS,
    IF_OUT_UCAST_PKTS,
    IF_IN_NUCAST_PKTS,
    IF_OUT_NUCAST_PKTS,
)
_ALL_COUNTER32 = (TAG_COUNTER32,) * len(_COLUMNS)
_ABSENT = (None, 0)  # the table cell of a row the agent did not serve
_WRAP = 1 << 32  # Counter32 and TimeTicks both wrap here


@dataclass(slots=True, unsafe_hash=True)
class InterfaceRates:
    """One interface's traffic rates over one measured interval.

    A value, never mutated once built (``dataclasses.replace`` makes the
    changed copy), but slotted rather than ``frozen``: every tier builds
    one per interface per cycle, and a frozen dataclass's eight
    ``object.__setattr__`` cost four times these eight plain stores.
    """

    node: str
    if_index: int
    time: float  # simulation time the sample was computed
    interval: float  # seconds of sysUpTime the sample covers
    in_bytes_per_s: float
    out_bytes_per_s: float
    in_pkts_per_s: float
    out_pkts_per_s: float

    @property
    def total_bytes_per_s(self) -> float:
        """Traffic crossing the interface in both directions."""
        return self.in_bytes_per_s + self.out_bytes_per_s

    def age(self, now: float) -> float:
        """Seconds elapsed since this sample was computed."""
        return max(0.0, now - self.time)


@dataclass(slots=True)
class _CounterSnapshot:
    """One interface's raw reading: sysUpTime ticks, then :data:`_COLUMNS`."""

    uptime: int
    octets_in: int
    octets_out: int
    ucast_in: int
    ucast_out: int
    nucast_in: int
    nucast_out: int


class RateTable:
    """The latest rate sample of every interface, keyed by (node, ifIndex).

    One sample per key, so a long-running monitor does not grow: retention
    is :class:`~repro.core.history.MeasurementHistory`'s job.

    Every admitted sample bumps the key's **ingest epoch** (see
    :mod:`repro.core.dataflow`): downstream caches -- connection
    measurements, hub aggregates, matrix cells -- key their validity on
    these stamps, so a poll cycle that refreshed three interfaces dirties
    exactly the measurements resting on those three interfaces.
    """

    def __init__(self) -> None:
        self._latest: Dict[Tuple[str, int], InterfaceRates] = {}
        #: Global ingest clock: increases whenever *any* sample lands.  (An
        #: ``EpochClock`` written out: admitting a sample is one call.)
        self.clock = 0
        self._epochs: Dict[Tuple[str, int], int] = {}

    def epoch(self, node: str, if_index: int) -> int:
        """Ingest epoch of one interface (0: no sample ever admitted)."""
        return self._epochs.get((node, if_index), 0)

    def update(self, sample: InterfaceRates) -> None:
        key = (sample.node, sample.if_index)
        self._latest[key] = sample
        self.clock = self._epochs[key] = self.clock + 1

    def latest(self, node: str, if_index: int) -> Optional[InterfaceRates]:
        return self._latest.get((node, if_index))

    def keys(self) -> List[Tuple[str, int]]:
        return sorted(self._latest)

    def __len__(self) -> int:
        return len(self._latest)


@dataclass
class PollTarget:
    """One SNMP agent and the interfaces to poll on it."""

    node: str
    address: IPv4Address
    if_indexes: List[int]
    community: str = "public"
    include_oper_status: bool = False  # also read ifOperStatus per interface
    include_speed: bool = False  # also read ifSpeed (integrity cross-check mode)

    def columns(self) -> List[Oid]:
        """The table columns a poll of this target must cover."""
        cols = list(_COLUMNS)
        if self.include_oper_status:
            cols.append(IF_OPER_STATUS)
        if self.include_speed:
            cols.append(IF_SPEED)
        return cols

    def oids(self) -> List[Oid]:
        """Every instance a poll of this target must fetch (what its GET names)."""
        return [SYS_UPTIME, *interface_oids(tuple(self.if_indexes), tuple(self.columns()))]


class _PollUnit:
    """One target's worth of work inside poll cycle number ``cycle``."""

    __slots__ = ("target", "span", "cycle")

    def __init__(self, target: PollTarget, span, cycle: int) -> None:
        self.target = target
        self.span = span
        self.cycle = cycle


POLL_MODES = ("get", "bulk")


class SnmpPoller:
    """Polls a set of targets every ``interval`` seconds.

    Each response's admitted samples leave through the one exit,
    ``on_sample``: the poller's own :class:`RateTable` unless the owner
    assigns another sink (a worker ships them instead).  The monitor
    schedules its report generation slightly after each cycle itself,
    leaving the poller reusable on its own.

    ``poll_mode`` selects the wire strategy per target: ``"get"`` (one
    GET naming every instance -- the paper's layout, what the single
    monitor uses) or ``"bulk"`` (a GetBulk column walk, 1-2 exchanges
    per agent regardless of interface count -- what the distributed
    plane's workers use).  It is one argument of the one
    :meth:`SnmpManager.poll_interfaces` call; both answer with the same
    per-column tables and feed the same parse/ingest path, so the rate
    table contents are mode-independent on a fault-free network.

    ``pipeline_window`` > 0 bounds how many targets may be in flight at
    once: a cycle enqueues every due target but launches at most
    ``pipeline_window``; each completion launches the next.  Backlog
    still queued when the next cycle begins is dropped and counted as an
    overrun (the new cycle's fresher poll of the same target supersedes
    it); :meth:`stop` drops it too.  0 launches everything at once.

    The poller closes its own cycles, telemetry on or off: once, when the
    last exchange resolves (answered, timed out, refused or dropped from
    the backlog), at once when the circuit breaker suppressed every
    target, or when the next cycle begins first.  A straggler from a
    closed cycle changes nothing.  The close finishes the ``poll_cycle``
    span and observes ``poll_cycle_seconds`` (with telemetry on), then
    calls ``on_cycle(number)``, after the cycle's last ``on_sample``.
    """

    def __init__(
        self,
        manager: SnmpManager,
        targets: Sequence[PollTarget],
        interval: float = 2.0,
        jitter: float = 0.0,
        seed: int = 0,
        rate_table: Optional[RateTable] = None,
        telemetry: Optional[Telemetry] = None,
        poll_mode: str = "get",
        pipeline_window: int = 0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"non-positive poll interval {interval!r}")
        if poll_mode not in POLL_MODES:
            raise ValueError(f"poll_mode must be one of {POLL_MODES}, got {poll_mode!r}")
        if pipeline_window < 0:
            raise ValueError(f"negative pipeline_window {pipeline_window!r}")
        self.poll_mode = poll_mode
        self.pipeline_window = pipeline_window
        self.manager = manager
        self.sim = manager.sim
        self.targets = list(targets)
        self.interval = interval
        self.jitter = jitter
        self.rng = random.Random(seed)
        self.rates = rate_table if rate_table is not None else RateTable()
        # Sharing the manager's hub keeps poller and manager statistics in
        # one registry even when no monitor wired an enabled hub through.
        self.telemetry = telemetry if telemetry is not None else manager.telemetry
        # Reachability tracking + circuit breaker: DEAD agents are polled
        # only at the tracker's slow probe cadence (default: every third
        # cycle) instead of burning a timeout slot every cycle.
        self.health = AgentHealthTracker(
            probe_interval=interval * 3, events=self.telemetry.events
        )
        # Per node and ifIndex, the last reading: (sysUpTime, the six counters).
        self._last: Dict[str, Dict[int, Tuple[int, Tuple[int, ...]]]] = {}
        # Samples ``_derive`` produced that ``poll_samples_total`` has not
        # been told of yet: the counter catches up once per response.
        self._uncounted = 0
        self._task = None
        registry = self.telemetry.registry
        self._m_cycles = registry.counter(
            "poll_cycles_total", "polling cycles scheduled"
        )
        # Aggregate errback count plus its split by cause.
        self._m_errors = registry.counter(
            "poll_errors_total", "poll requests that ended in an errback"
        )
        self._m_timeout_errors = registry.counter(
            "poll_timeout_errors_total", "poll requests that timed out"
        )
        self._m_error_responses = registry.counter(
            "poll_error_responses_total", "polls answered with an SNMP error-status"
        )
        self._m_parse_errors = registry.counter(
            "poll_parse_errors_total", "poll responses whose varbinds were unusable"
        )
        self._m_samples = registry.counter(
            "poll_samples_total", "rate samples computed from counter deltas"
        )
        self._m_restarts = registry.counter(
            "agent_restarts_total", "sysUpTime resets read as agent restarts"
        )
        self._m_window_deferred = registry.counter(
            "poll_window_deferred_total",
            "poll units queued behind the pipeline window before launching",
        )
        self._m_window_overruns = registry.counter(
            "poll_window_overruns_total",
            "queued poll units dropped because the next cycle began first",
        )
        self._h_cycle = registry.histogram(
            "poll_cycle_seconds",
            "poll cycle duration: requests issued to last outcome landed",
        )
        # Pipeline scheduler state: queued units awaiting a window slot,
        # the current in-flight count, and the high-water mark.
        self._backlog: Deque[_PollUnit] = deque()
        self._in_flight = 0
        self.window_peak = 0
        # The open cycle (0: none), its span and its unresolved exchanges.
        self._open_cycle = 0
        self._cycle_span = NULL_SPAN
        self._unresolved = 0
        # An uptime delta beyond this is read as an agent restart (the
        # counter baselines are then worthless and are re-established).
        # TimeTicks wrap legitimately only every ~497 days; any apparent
        # backward jump that "wraps" into a huge interval is a restart.
        self.max_plausible_interval = max(3600.0, interval * 100)
        # Optional measurement-integrity pipeline (repro.integrity): when
        # set, every computed sample passes through ``inspect`` and only
        # admitted samples reach the rate table.  Duck-typed so the
        # poller stays usable without the integrity package.
        self.integrity = None
        #: The one exit: every admitted sample is handed to this callable.
        self.on_sample: Callable[[InterfaceRates], object] = self.rates.update
        # Invoked as (node, if_index, up: bool) for every polled interface
        # whose target requests oper-status tracking -- the poll-based
        # link-state backstop for when linkDown traps are lost.
        self.on_status: Optional[Callable[[str, int, bool], None]] = None
        #: Called with a cycle's number when it closes (see the class doc).
        self.on_cycle: Optional[Callable[[int], object]] = None

    @property
    def polls_suppressed(self) -> int:
        """Polls skipped because the target's circuit breaker was open."""
        return self.health.polls_suppressed

    # ------------------------------------------------------------------
    # Statistics (registry-backed; the attribute names are the old API)
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        return self._m_cycles.value

    @property
    def poll_errors(self) -> int:
        return self._m_errors.value

    @property
    def samples_produced(self) -> int:
        return self._m_samples.value + self._uncounted

    @property
    def agent_restarts(self) -> int:
        return self._m_restarts.value

    @property
    def window_deferred(self) -> int:
        return self._m_window_deferred.value

    @property
    def window_overruns(self) -> int:
        return self._m_window_overruns.value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, first_poll_at: Optional[float] = None) -> None:
        if self._task is not None:
            raise RuntimeError("poller already started")
        jitter_fn = None
        if self.jitter > 0:
            jitter_fn = lambda: self.rng.uniform(0.0, self.jitter)  # noqa: E731
        self._task = self.sim.call_every(
            self.interval,
            self._poll_cycle,
            start=first_poll_at if first_poll_at is not None else self.sim.now,
            jitter=jitter_fn,
        )

    def stop(self) -> None:
        """Poll no more: exchanges in flight still land, nothing queued launches."""
        if self._task is not None:
            self._task.cancel()
            self._task = None
        while self._backlog:
            self._resolve(self._backlog.popleft(), "dropped")

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def _poll_cycle(self) -> None:
        self._m_cycles.inc()
        # Backlog still queued from the previous cycle is superseded by
        # this cycle's fresher poll of the same targets: drop it (counted)
        # rather than let a slow network build an ever-deeper queue.
        while self._backlog:
            self._m_window_overruns.inc()
            self._resolve(self._backlog.popleft(), "overrun")
        if self._open_cycle:  # the previous cycle's stragglers are still out
            self._close_cycle(unfinished_exchanges=self._unresolved)
        cycle, tracer, now = self.cycles, self.telemetry.tracer, self.sim.now
        span = tracer.begin("poll_cycle", cycle=cycle)
        units = [
            _PollUnit(target, tracer.begin("snmp_exchange", parent=span, agent=target.node), cycle)
            for target in self.targets
            # Circuit open: a DEAD agent is skipped until its probe is due.
            if self.health.should_poll(target.node, now)
        ]
        self._open_cycle, self._cycle_span, self._unresolved = cycle, span, len(units)
        if not units:
            self._close_cycle()  # every target suppressed: over as it begins
        window = self.pipeline_window
        if window and len(units) > window:
            launch_now, deferred = units[:window], units[window:]
            for unit in deferred:
                self._m_window_deferred.inc()
            self._backlog.extend(deferred)
        else:
            launch_now = units
        for unit in launch_now:
            self._launch(unit)

    # -- pipelined launch ----------------------------------------------
    def _launch(self, unit: _PollUnit) -> None:
        self._in_flight += 1
        if self._in_flight > self.window_peak:
            self.window_peak = self._in_flight
        target = unit.target

        def on_ok(reply) -> None:
            self._on_response(target, reply)
            self._landed(unit, "ok")

        def on_err(exc: Exception) -> None:
            self._landed(unit, self._on_error(target, exc))

        # A target with no interfaces is still probed (a GET of sysUpTime).
        self.manager.poll_interfaces(
            target.address,
            target.if_indexes,
            target.columns(),
            callback=on_ok,
            errback=on_err,
            bulk=self.poll_mode == "bulk" and bool(target.if_indexes),
            community=target.community,
        )

    def _landed(self, unit: _PollUnit, outcome: str) -> None:
        """A launched unit's exchange is over: resolve it, and give its
        window slot to the next queued unit."""
        self._in_flight = max(0, self._in_flight - 1)
        self._resolve(unit, outcome)
        if self._backlog:
            self._launch(self._backlog.popleft())

    # -- the cycle clock -------------------------------------------------
    def _resolve(self, unit: _PollUnit, outcome: str) -> None:
        """Every unit ends here, once; the open cycle's last one closes it."""
        unit.span.finish(outcome=outcome)
        if unit.cycle == self._open_cycle:
            self._unresolved -= 1
            if not self._unresolved:
                self._close_cycle()

    def _close_cycle(self, **attrs: object) -> None:
        """The open cycle is over: its span reads the close, then the hook."""
        number, span = self._open_cycle, self._cycle_span
        self._open_cycle, self._cycle_span = 0, NULL_SPAN
        if span.open:
            span.finish(**attrs)
            self._h_cycle.observe(span.duration)
        if self.on_cycle is not None:
            self.on_cycle(number)

    def _on_error(self, target: PollTarget, exc: Exception) -> str:
        """Account one failed poll; returns its exchange's outcome."""
        self._m_errors.inc()
        if isinstance(exc, SnmpTimeout):
            self._m_timeout_errors.inc()
            self.health.record_failure(target.node, self.sim.now)
            return "timeout"
        if isinstance(exc, SnmpErrorResponse):
            # The agent answered -- it is alive -- but the response is
            # unusable.  Reachability up, data quality down.
            self._m_error_responses.inc()
            self.health.record_success(target.node, self.sim.now)
            return "error_response"
        return "error"

    def _on_response(self, target: PollTarget, reply) -> None:
        """Account one answered poll, then :meth:`_derive` its reply."""
        self.health.record_success(target.node, self.sim.now)
        uptime, tables = reply
        if uptime is None:
            self._m_parse_errors.inc()
            return
        self._derive(target.node, target.if_indexes, uptime, tables)

    def _derive(self, node: str, if_indexes: Sequence[int], uptime: int, tables: dict) -> None:
        """Turn one reply, ``{column: {ifIndex: (tag, value)}}`` at sysUpTime
        ``uptime``, into a sample per interface against its last ``(uptime,
        six integers)``; a wrong type (its tag says) or a missing row is a
        parse error.  The interval is judged once per baseline uptime (so a
        restart counts once); six unmoved integers make rates of exactly
        ``+0.0``, and raw snapshots are built only for ``inspect``."""
        last, integrity, now = self._last.setdefault(node, {}), self.integrity, self.sim.now
        in_octets, out_octets, in_ucast, out_ucast, in_nucast, out_nucast = [
            tables[col] for col in _COLUMNS
        ]
        statuses = tables.get(IF_OPER_STATUS, {}) if self.on_status is not None else {}
        since, seconds, restarted = None, None, []
        for index in dict.fromkeys(if_indexes):
            if statuses and statuses.get(index, _ABSENT)[0] == TAG_INTEGER:
                self.on_status(node, index, statuses[index][1] == IF_STATUS_UP)
            tags, values = zip(
                in_octets.get(index, _ABSENT), out_octets.get(index, _ABSENT),
                in_ucast.get(index, _ABSENT), out_ucast.get(index, _ABSENT),
                in_nucast.get(index, _ABSENT), out_nucast.get(index, _ABSENT),
            )
            if tags != _ALL_COUNTER32:
                self._m_parse_errors.inc()
                continue
            previous = last.get(index)
            last[index] = (uptime, values)
            if previous is None:
                continue  # first poll only establishes the baseline
            if previous[0] != since:
                since = previous[0]
                seconds = ((uptime - since) % _WRAP) / 100.0
            if seconds <= 0:
                continue  # same-tick duplicate; drop the sample
            if seconds > self.max_plausible_interval:
                # sysUpTime went backwards (agent restarted: "the time since
                # the network management portion of the system was last
                # re-initialized").  Counters restarted with it; this poll
                # only re-establishes the baseline.
                restarted.append(index)
                if integrity is not None:
                    integrity.note_restart(node, index)
                continue
            if values == previous[1]:
                sample = InterfaceRates(node, index, now, seconds, 0.0, 0.0, 0.0, 0.0)
            else:  # "The old value is subtracted from the new one", modulo the wrap
                d = [(new - old) % _WRAP for new, old in zip(values, previous[1])]
                sample = InterfaceRates(  # octets, then unicast + non-unicast packets
                    node, index, now, seconds, d[0] / seconds, d[1] / seconds,
                    (d[2] + d[4]) / seconds, (d[3] + d[5]) / seconds,
                )
            self._uncounted += 1
            if integrity is not None:
                tag, speed = tables.get(IF_SPEED, {}).get(index, _ABSENT)
                if not integrity.inspect(
                    sample, _CounterSnapshot(previous[0], *previous[1]),
                    _CounterSnapshot(uptime, *values),
                    float(speed) if tag == TAG_GAUGE32 else None,
                ):
                    # Withheld: the table keeps its last admitted sample, which
                    # ages into staleness -- bad data degrades like missing data.
                    continue
            self.on_sample(sample)
        if restarted:
            self._m_restarts.inc()
            self.telemetry.events.publish(
                AGENT_RESTART, now, node=node, if_indexes=tuple(restarted)
            )
        if self._uncounted:
            self._m_samples.inc(self._uncounted)
            self._uncounted = 0
