"""Budgeted scheduling of probe trains across a monitor's watched paths.

Active probing has the same self-awareness obligation SNMP polling does:
the measurement must not perturb what it measures.  The scheduler makes
that a provable bound rather than a hope -- it launches at most **one
train per round**, and rounds are never closer than the round interval,
sized so that even if every round's train crossed the same link, that
link would carry at most ``budget_fraction`` of its capacity in probe
bytes:

    round_interval = max over paths of
        train_bytes / (budget_fraction * narrowest_bytes_per_s)

where a watch in doubt counts what its last train achieved instead, when
lower: a link below its spec speed is budgeted by what it carries.

Probing is spent in proportion to doubt.  A watch is **in doubt** when

(a) its path crosses a connection no counter source observes (resolved
    once per bound path, :meth:`~repro.core.monitor.ReportCore.watch_unmetered`);
(b) its passive report is degraded or below ``priority_confidence``;
(c) it has an active cross-validation finding, or a breach streak is
    under way, so the confirming train follows one round later; or
(d) one of its last ``BREACH_COUNT`` trains lost packets or was abandoned.

While a watch is in doubt, or a train is in flight, the next round is
armed one round interval out: the budget cadence.  Otherwise passive
SNMP accounts for every watch, and each gets one train per poll interval
-- each passive report is cross-checked once -- so the next round is
armed for when the least recently probed watch is one poll interval old,
never sooner than the round interval.  A round goes to a watch in doubt
or one that is due, the least recently probed first -- but a due watch,
and one that most needs a second opinion (rule (b), or rule (c)'s
finding or streak), ahead of the rest; so a watch not in doubt keeps its
train per report however long another is in doubt.  The causes found at
the last round are :attr:`ProbeScheduler.in_doubt`.

Doubt is asked of every watch on every round, so the pick reads the
trust figures the passive report would carry (``ReportCore.watch_trust``)
and builds no report; the one passive report a round needs is built when
its train completes, for the cross-validator.  A train that never
completes (flapped link, blackholed probes) is abandoned by its own
timeout, and the in-flight guard merely skips rounds until then -- the
scheduler cannot wedge, and a skipped round only *lowers* probe load,
never raises it.

Each completed train is cross-validated against the passive path report
(see :mod:`repro.probe.crossval`); confirmed disagreements surface as
telemetry events, stream :class:`~repro.stream.events.ProbeDisagreement`
deliveries, integrity verdicts, and a confidence cap on the path's
reports until the planes re-agree.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.monitor import MonitorError
from repro.probe.crossval import (
    BREACH_COUNT,
    ProbeCrossValidator,
    ProbeDisagreementFinding,
)
from repro.probe.stats import ProbeReport
from repro.probe.train import ProbeError, ProbeTrain, check_train
from repro.stream.events import ProbeDisagreement, pair_key
from repro.telemetry.events import (
    PROBE_DISAGREEMENT,
    PROBE_RECOVERED,
    PROBE_TRAIN_COMPLETED,
)

#: Default ceiling on probe load per link, as a fraction of its capacity.
DEFAULT_BUDGET_FRACTION = 0.02
#: A watch whose passive confidence is below this is probed ahead of its turn.
PRIORITY_CONFIDENCE = 0.7
#: Doubt causes that rank a watch with the due ones, ahead of other doubt.
_URGENT = ("disagreement", "degraded", "streak")

# Metric family names (see register_probe_metrics).
TRAINS_TOTAL = "probe_trains_total"
PACKETS_SENT_TOTAL = "probe_packets_sent_total"
PACKETS_LOST_TOTAL = "probe_packets_lost_total"
BYTES_SENT_TOTAL = "probe_bytes_sent_total"
DISAGREEMENTS_TOTAL = "probe_disagreements_total"
RECOVERIES_TOTAL = "probe_recoveries_total"
ACTIVE_DISAGREEMENTS = "probe_active_disagreements"


def register_probe_metrics(registry) -> None:
    """Create (or fetch) the probe metric families on ``registry``.

    Safe to call repeatedly -- families are get-or-create, mirroring
    :func:`repro.stream.manager.register_stream_metrics`.
    """
    registry.counter(TRAINS_TOTAL, "Probe trains completed (incl. abandoned)")
    registry.counter(PACKETS_SENT_TOTAL, "Probe packets sent")
    registry.counter(PACKETS_LOST_TOTAL, "Probe packets lost or late")
    registry.counter(BYTES_SENT_TOTAL, "Probe wire bytes sent")
    registry.counter(
        DISAGREEMENTS_TOTAL, "Debounced active/passive disagreement findings"
    )
    registry.counter(RECOVERIES_TOTAL, "Disagreements that re-agreed and cleared")
    registry.gauge(
        ACTIVE_DISAGREEMENTS, "Paths currently under an active disagreement cap"
    )


class ProbeScheduler:
    """Probe trains over a monitor's watched paths, paced by doubt.

    ``monitor`` is any monitor plane (a
    :class:`~repro.core.monitor.ReportCore`); the scheduler reads its
    watch list each round, so paths added or removed after
    :meth:`start` are picked up automatically.
    """

    def __init__(
        self,
        monitor,
        budget_fraction: float = DEFAULT_BUDGET_FRACTION,
        count: int = 16,
        payload_size: int = 1472,
        timeout: float = 1.0,
    ) -> None:
        if not 0.0 < budget_fraction <= 0.25:
            raise ProbeError(
                f"budget_fraction out of (0, 0.25]: {budget_fraction!r}"
            )
        # Every round builds a train from these: refuse them here, not
        # at the first round.
        check_train(count, payload_size, timeout)
        self.monitor = monitor
        self.sim = monitor.sim
        self.budget_fraction = budget_fraction
        self.count = count
        self.payload_size = payload_size
        self.timeout = timeout
        #: Sized from the budget over the watched paths when probing starts.
        self.round_interval: Optional[float] = None
        self.priority_confidence = PRIORITY_CONFIDENCE
        self.validator = ProbeCrossValidator(calculator=monitor.calculator)
        #: Latest completed report per watch label.
        self.reports: Dict[str, ProbeReport] = {}
        #: Trains completed per watch label (the fairness ledger).
        self.trains_per_path: Dict[str, int] = {}
        #: Why each watch took the budget cadence at the last round:
        #: label -> "unmetered" | "degraded" | "disagreement" | "streak" | "loss".
        self.in_doubt: Dict[str, str] = {}
        self._last_probed: Dict[str, float] = {}
        self._announced: Dict[str, str] = {}  # label -> announced cause
        # label -> trains left at the budget cadence after a lossy one.
        self._lossy: Dict[str, int] = {}
        self._inflight: Optional[str] = None
        self._task = None  # the armed round's event handle
        self.rounds = 0
        self.rounds_skipped = 0
        self.trains_started = 0
        self.trains_abandoned = 0

        registry = monitor.telemetry.registry
        register_probe_metrics(registry)
        self._m_trains = registry.counter(TRAINS_TOTAL, "")
        self._m_sent = registry.counter(PACKETS_SENT_TOTAL, "")
        self._m_lost = registry.counter(PACKETS_LOST_TOTAL, "")
        self._m_bytes = registry.counter(BYTES_SENT_TOTAL, "")
        self._m_disagreements = registry.counter(DISAGREEMENTS_TOTAL, "")
        self._m_recoveries = registry.counter(RECOVERIES_TOTAL, "")
        registry.gauge(ACTIVE_DISAGREEMENTS, "").set_function(
            lambda: float(len(self.validator.active))
        )

    # ------------------------------------------------------------------
    # Budget arithmetic
    # ------------------------------------------------------------------
    @property
    def train_bytes(self) -> int:
        """Wire bytes one train puts on every link it crosses."""
        from repro.probe.train import _WIRE_OVERHEAD

        return self.count * (self.payload_size + _WIRE_OVERHEAD)

    def narrowest_bytes(self, label: str) -> float:
        """Capacity (bytes/s) of the narrowest link on ``label``'s path."""
        spec = self.monitor.spec
        return min(
            spec.effective_bandwidth(conn) for conn in self.monitor.path_of(label)
        ) / 8.0

    def required_interval(self, label: str) -> float:
        """Round interval keeping ``label``'s narrowest link in budget: by
        its spec speed, or while in doubt its last train's, if lower."""
        capacity, report = self.narrowest_bytes(label), self.reports.get(label)
        if report is not None and 0 < report.achievable_bps < capacity and self._doubt(label):
            capacity = report.achievable_bps
        return self.train_bytes / (self.budget_fraction * capacity)

    def _compute_interval(self) -> float:
        labels = self.monitor.watched_paths()
        if not labels:
            if self.round_interval is not None:
                return self.round_interval  # nothing watched for now: as sized last
            raise ProbeError("no watched paths to probe; call watch_path() first")
        return max(self.required_interval(label) for label in labels)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._task is not None

    def start(
        self, at: Optional[float] = None, after: Optional[float] = None
    ) -> None:
        """Begin probing rounds.

        The first round fires at ``at`` when given; otherwise one round
        interval past ``max(now, after)`` -- the monitor passes its first
        report time as ``after`` so cross-validation never compares a
        train against a passive report with no samples behind it.
        """
        if self._task is not None:
            raise ProbeError("probe scheduler already started")
        self.round_interval = interval = self._compute_interval()
        if at is None:
            base = self.sim.now if after is None else max(self.sim.now, after)
            at = base + interval
        self._task = self.sim.schedule_at(at, self._round)

    def stop(self) -> None:
        if self._task is not None:
            self.sim.cancel(self._task)
            self._task = None

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def _needs_attention(self, label: str) -> bool:
        if label in self.validator.active:
            return True
        confidence, degraded = self.monitor.watch_trust(label)
        return degraded or confidence < self.priority_confidence

    def _doubt(self, label: str) -> Optional[str]:
        """Why ``label`` takes the budget cadence (rules (a)-(d) of the
        module docstring), or None when passive SNMP accounts for it."""
        if self._needs_attention(label):
            return "disagreement" if label in self.validator.active else "degraded"
        if self.monitor.watch_unmetered(label):
            return "unmetered"
        if self.validator.streak(label):
            return "streak"
        return "loss" if self._lossy.get(label) else None

    def _pick(self) -> Optional[str]:
        """The watch this round's train goes to, or None: of those due (a
        poll interval past their last train) or in doubt, the least
        recently probed, due and urgent ones first.  Refreshes
        :attr:`in_doubt`."""
        labels = self.monitor.watched_paths()
        self.in_doubt = in_doubt = {}
        now, period = self.sim.now, self.monitor.poll_interval
        best, best_key = None, None
        for label in labels:
            cause = self._doubt(label)
            last = self._last_probed.get(label, -math.inf)
            due = last + period <= now
            if cause is not None:
                in_doubt[label] = cause
            elif not due:
                continue  # its last train cross-checked the current report
            key = (not due and cause not in _URGENT, last)
            if best_key is None or key < best_key:
                best, best_key = label, key
        return best

    def _next_round(self, busy: bool) -> float:
        """When the round after this one fires: one round interval out
        while a train was in flight (``busy``) or a watch is in doubt, else
        when the least recently probed watch is one poll interval old."""
        soonest = self.sim.now + self.round_interval
        if busy or self.in_doubt:
            return soonest
        last = self._last_probed
        oldest = min(
            (last.get(label, -math.inf) for label in self.monitor.watched_paths()),
            default=-math.inf,
        )
        return max(soonest, oldest + self.monitor.poll_interval)

    def _round(self) -> None:
        self.rounds += 1
        # A round that finds a train still outstanding (its timeout will
        # reap it) is skipped; skipping only lowers probe load, so the
        # budget bound holds.
        busy = self._inflight is not None
        label = None if busy else self._pick()
        if label is None:
            self.rounds_skipped += 1
        else:
            self._launch(label)
        self.round_interval = self._compute_interval()
        self._task = self.sim.schedule_at(self._next_round(busy), self._round)

    def _launch(self, label: str) -> None:
        src, dst = self.monitor.endpoints_of(label)
        train = ProbeTrain(
            self.monitor.network.host(src),
            self.monitor.network.host(dst),
            count=self.count,
            payload_size=self.payload_size,
            timeout=self.timeout,
            on_complete=lambda report, label=label: self._on_done(label, report),
        )
        self._inflight = label
        self._last_probed[label] = self.sim.now
        self.trains_started += 1
        train.start()

    # ------------------------------------------------------------------
    # Completion + cross-validation
    # ------------------------------------------------------------------
    def _on_done(self, label: str, report: ProbeReport) -> None:
        self._inflight = None
        self.reports[label] = report
        self.trains_per_path[label] = self.trains_per_path.get(label, 0) + 1
        self.trains_abandoned += not report.delivered
        self._m_trains.inc()
        self._m_sent.inc(report.sent)
        self._m_lost.inc(report.sent - report.received)
        self._m_bytes.inc(report.train_bytes)
        now = self.sim.now
        self.monitor.telemetry.events.publish(
            PROBE_TRAIN_COMPLETED,
            now,
            path=label,
            achievable_bps=report.achievable_bps,
            loss_rate=report.loss_rate,
            jitter_s=report.jitter_s,
            delivered=report.delivered,
        )
        try:
            passive = self.monitor.current_report(label, _probe_cap=False)
        except MonitorError:
            return  # watch vanished mid-flight; nothing to compare against
        self._lossy[label] = (
            BREACH_COUNT if not report.complete else max(self._lossy.get(label, 0) - 1, 0)
        )
        finding, recovered = self.validator.observe(report, passive, now)
        self.round_interval = self._compute_interval()
        if self._lossy[label] or self.validator.streak(label):
            # This train opened a doubt: its confirming train follows one
            # round interval after it set out, not a poll interval.
            at = max(now, self._last_probed[label] + self.round_interval)
            if self._task is not None and self._task[0] > at:
                self.sim.cancel(self._task)
                self._task = self.sim.schedule_at(at, self._round)
        if recovered:
            self._m_recoveries.inc()
            self._announced.pop(label, None)
            self.monitor.telemetry.events.publish(
                PROBE_RECOVERED,
                now,
                path=label,
                achievable_bps=report.achievable_bps,
                passive_bps=passive.available_bps,
            )
        if finding is None:
            return
        # Trust decays every sustaining round (like passive cross-checks),
        # but the event fan-out announces only new or re-localized findings.
        if self.monitor.integrity is not None:
            self.monitor.integrity.apply_external_verdicts(
                self.validator.verdicts_for(finding), now
            )
        if self._announced.get(label) == finding.cause:
            return
        self._announced[label] = finding.cause
        self._m_disagreements.inc()
        self.monitor.telemetry.events.publish(
            PROBE_DISAGREEMENT,
            now,
            path=label,
            probe_bps=finding.probe_bps,
            passive_bps=finding.passive_bps,
            cause=finding.cause,
            blamed=finding.blamed,
        )
        if self.monitor.stream is not None:
            event = ProbeDisagreement(
                pair=pair_key(finding.src, finding.dst),
                time=now,
                epoch=self.monitor.stream.clock.epoch,
                report=passive,
                probe_bps=finding.probe_bps,
                passive_bps=finding.passive_bps,
                cause=finding.cause,
                blamed=finding.blamed,
            )
            self.monitor.stream.manager.deliver(event)

    def forget(self, label: str) -> None:
        """``label`` was unwatched: no finding, streak or ledger outlives it."""
        for ledger in (self.in_doubt, self._last_probed, self._lossy, self._announced,
                       self.validator.active, self.validator._streaks):
            ledger.pop(label, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def confidence_cap_for(self, label: str) -> Optional[float]:
        return self.validator.confidence_cap_for(label)

    def findings(self) -> List[ProbeDisagreementFinding]:
        """Active disagreement findings, ordered by path label."""
        return [self.validator.active[k] for k in sorted(self.validator.active)]

    def stats(self) -> Dict[str, object]:
        return {
            "round_interval": self.round_interval,
            "budget_fraction": self.budget_fraction,
            "train_bytes": self.train_bytes,
            "rounds": self.rounds,
            "rounds_skipped": self.rounds_skipped,
            "trains_started": self.trains_started,
            "trains_abandoned": self.trains_abandoned,
            "trains_per_path": dict(self.trains_per_path),
            "comparisons": self.validator.comparisons,
            "disagreements": self.validator.disagreements,
            "active_disagreements": sorted(self.validator.active),
            "in_doubt": dict(self.in_doubt),
        }
