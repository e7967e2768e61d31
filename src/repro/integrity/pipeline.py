"""The measurement-integrity pipeline: validate, cross-check, quarantine.

Sits between the SNMP poller and the bandwidth calculator:

::

    Derivation.derive ──► pipeline.inspect ──┬─ admit ──► RateTable ──► calculator
                                             └─ reject (violation / quarantined)
                                                   │
                                             trust scores ──► quarantine
                                                   ▲
    report cycle  ──► pipeline.run_cross_checks ───┘   (shadow samples)

``inspect`` runs the per-sample validators on the two raw readings a
sample was derived from, on every plane, and decides admission; the
monitor calls ``run_cross_checks`` each report cycle to compare both
ends of every two-ended connection.  Rejected samples never reach the
``RateTable``, so the PR-1 staleness/confidence machinery degrades
dependent path reports exactly as if the data were missing -- bad data
and absent data share one code path downstream.

The pipeline also keeps a *shadow* copy of the latest sample per
interface, including withheld ones: the cross-checker reads the shadow
table so a quarantined liar keeps being observed (and keeps losing
trust) instead of vanishing from view and quietly recovering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.health import AgentHealthTracker
from repro.core.poller import InterfaceRates
from repro.integrity.crosscheck import CrossChecker, CrossPair
from repro.integrity.quarantine import QuarantineManager, TrustRecord
from repro.integrity.validators import (
    IntegrityVerdict,
    RateBoundValidator,
    SampleContext,
    Severity,
    SpeedValidator,
    StuckCounterValidator,
    WrapRiskValidator,
    wrap_period_seconds,
)
from repro.telemetry import Telemetry
from repro.telemetry.events import COUNTER_WRAP_RISK, CROSS_CHECK_MISMATCH, INTEGRITY_VIOLATION
from repro.telemetry.metrics import MetricsRegistry

Key = Tuple[str, int]


@dataclass(slots=True)
class _Interface:
    """What the per-sample path binds for one (node, ifIndex) on first
    sight, to find with one dict probe: the rate-bound and wrap-risk
    rules' arithmetic on the declared speed (infinite: none declared, the
    rule cannot fire), the quarantine manager's record, and the
    stuck-counter validator's live ``[streak, was_active]`` (``None``
    before the first sample, and again once a restart dropped it)."""

    speed_bps: Optional[float]
    rate_limit: float
    half_wrap: float
    trust: TrustRecord
    stuck: Optional[list] = None


@dataclass(frozen=True)
class IntegrityConfig:
    """Knobs for the whole pipeline (defaults sized for the testbed).

    ``rate_tolerance`` must clear the legitimate cache-displacement
    overshoot (~25 % above line rate on single samples); 0.5 leaves a
    2x margin.  The trust dynamics put a freshly corrupted interface in
    quarantine within two violating polls (1.0 -> 0.5 -> 0.25 < 0.3)
    and require six clean polls to release it (0.25 + 6*0.1 >= 0.8).
    """

    rate_tolerance: float = 0.5
    stuck_after: int = 3
    stuck_decays_trust: bool = False
    speed_rel_tolerance: float = 0.01
    violation_decay: float = 0.5
    suspect_decay: float = 0.7
    recover_step: float = 0.1
    quarantine_below: float = 0.3
    release_above: float = 0.8
    cross_rel_tolerance: float = 0.35
    cross_abs_floor_bps: float = 4096.0
    cross_breach_count: int = 2
    offender_window_polls: float = 2.0  # recent-verdict window, in poll intervals


def register_integrity_metrics(registry: MetricsRegistry) -> Dict[str, object]:
    """Create (or fetch) the pipeline's metric families.

    Called by both the pipeline and the monitor so ``stats()`` keys
    resolve even when the pipeline is disabled.  The registry's
    get-or-create semantics make this idempotent.
    """
    return {
        "violations": registry.counter(
            "integrity_violations_total", "samples failing integrity validation"
        ),
        "violations_by_check": registry.counter(
            "integrity_violations_by_check_total",
            "integrity violations split by failing check",
            labelnames=("check",),
        ),
        "suspects": registry.counter(
            "integrity_suspect_samples_total",
            "samples flagged suspect (admitted but annotated)",
        ),
        "rejected": registry.counter(
            "integrity_samples_rejected_total",
            "samples withheld from the rate table (violating or quarantined)",
        ),
        "cross_mismatches": registry.counter(
            "integrity_cross_check_mismatches_total",
            "two-ended cross-check disagreements flagged",
        ),
        "quarantines": registry.counter(
            "integrity_quarantines_total", "interfaces placed in quarantine"
        ),
        "releases": registry.counter(
            "integrity_quarantine_releases_total", "interfaces released from quarantine"
        ),
        "quarantined": registry.gauge(
            "quarantined_interfaces", "interfaces currently quarantined"
        ),
        "trust": registry.gauge(
            "interface_trust",
            "per-interface trust score (1 = pristine)",
            labelnames=("interface",),
        ),
    }


class IntegrityPipeline:
    """Validation + cross-checks + quarantine over the poller's samples."""

    def __init__(
        self,
        speeds: Dict[Key, float],
        poll_interval: float,
        config: Optional[IntegrityConfig] = None,
        pairs: Sequence[CrossPair] = (),
        health: Optional[AgentHealthTracker] = None,
        telemetry: Optional[Telemetry] = None,
        now: float = 0.0,
    ) -> None:
        self.config = cfg = config if config is not None else IntegrityConfig()
        self.speeds = dict(speeds)
        self.poll_interval = poll_interval
        self.health = health
        self.telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self._rate_bound = RateBoundValidator(tolerance=cfg.rate_tolerance)
        self._stuck = StuckCounterValidator(
            stuck_after=cfg.stuck_after, decay_trust=cfg.stuck_decays_trust
        )
        self._validators = [
            self._rate_bound,
            self._stuck,
            SpeedValidator(rel_tolerance=cfg.speed_rel_tolerance),
            WrapRiskValidator(),
        ]
        self.quarantine = QuarantineManager(
            quarantine_below=cfg.quarantine_below,
            release_above=cfg.release_above,
            violation_decay=cfg.violation_decay,
            suspect_decay=cfg.suspect_decay,
            recover_step=cfg.recover_step,
            events=self.telemetry.events,
        )
        self.cross_checker = (
            CrossChecker(
                pairs,
                rel_tolerance=cfg.cross_rel_tolerance,
                abs_floor_bps=cfg.cross_abs_floor_bps,
                max_sample_age=2.0 * poll_interval,
                breach_count=cfg.cross_breach_count,
                health=health,
            )
            if pairs
            else None
        )
        self._interfaces: Dict[Key, _Interface] = {}
        self._shadow: Dict[Key, InterfaceRates] = {}
        self._last_offence: Dict[Key, float] = {}
        self._wrap_warned: set = set()
        self._metrics = register_integrity_metrics(self.telemetry.registry)
        self._suspects = self._metrics["suspects"].inc  # the two per-sample counters
        self._rejected = self._metrics["rejected"].inc
        self._metrics["quarantined"].set_function(
            lambda: float(self.quarantine.quarantined)
        )
        self._warn_wrap_risk_config(now)

    # ------------------------------------------------------------------
    # Satellite: at-most-one-wrap configuration guard
    # ------------------------------------------------------------------
    def _warn_wrap_risk_config(self, now: float) -> None:
        """One-time warning when the *scheduled* interval risks wraps.

        ``Counter32.delta`` assumes at most one wrap per interval; at
        100 Mb/s the octet counter wraps every ~343 s, so polling slower
        than ~171 s can hide a double wrap.  Per-interface because the
        threshold scales with ifSpeed (a 10 Mb/s hub leg is safe ten
        times longer).
        """
        for key in sorted(self.speeds):
            speed = self.speeds[key]
            if not speed:
                continue
            half_wrap = wrap_period_seconds(speed) / 2.0
            if self.poll_interval > half_wrap and key not in self._wrap_warned:
                self._wrap_warned.add(key)
                self.telemetry.events.publish(
                    COUNTER_WRAP_RISK,
                    now,
                    node=key[0],
                    if_index=key[1],
                    poll_interval=self.poll_interval,
                    half_wrap_seconds=round(half_wrap, 1),
                    speed_bps=speed,
                )

    @property
    def wrap_risky_interfaces(self) -> List[Key]:
        """Interfaces whose configured interval can hide a counter wrap."""
        return sorted(self._wrap_warned)

    def follow(self, speeds: Dict[Key, float], now: float) -> None:
        """The measured interfaces are now ``speeds``' keys: an interface
        that left keeps no state here (trust, quarantine, streaks, its
        gauge), and one that joined is judged from its first sample."""
        for key in sorted(set(self.speeds).union(self._interfaces) - set(speeds)):
            self._interfaces.pop(key, None)
            self._shadow.pop(key, None)
            self._last_offence.pop(key, None)
            self._wrap_warned.discard(key)
            self._stuck.forget(*key)
            self.quarantine.forget(key)
            self._metrics["trust"].remove(interface=f"{key[0]}:{key[1]}")
        self.speeds = dict(speeds)
        self._warn_wrap_risk_config(now)

    # ------------------------------------------------------------------
    # Per-sample path (called from Derivation.derive)
    # ------------------------------------------------------------------
    def _bind(self, key: Key) -> _Interface:
        """First sight of an interface, by a sample or by a verdict."""
        speed = self.speeds.get(key)
        trust = self.quarantine.record(*key)
        self._metrics["trust"].labels(interface=f"{key[0]}:{key[1]}").set_function(
            lambda: round(trust.score, 4)
        )
        iface = self._interfaces[key] = _Interface(
            speed_bps=speed,
            rate_limit=self._rate_bound.limit(speed) if speed else math.inf,
            half_wrap=wrap_period_seconds(speed) / 2.0 if speed else math.inf,
            trust=trust,
        )
        return iface

    def inspect(
        self,
        sample: InterfaceRates,
        prev: tuple,
        cur: tuple,
        polled_speed_bps: Optional[float] = None,
    ) -> bool:
        """Validate one sample; return True when it may enter the table.

        Whether a stateless rule *may* fire is decided here, on the
        numbers bound to the interface; the *verdicts* are the
        validators', asked for only then, so a sample on which nothing
        fires allocates nothing.  The guard is written in the form that
        is false for NaN (``not (rate <= limit)``, never ``rate >
        limit``): a value that is no number falls through and is judged.

        ``prev`` and ``cur`` are the two raw readings the sample was
        derived from, ``(sysUpTime, six Counter32 values)`` each.
        """
        key = (sample.node, sample.if_index)
        self._shadow[key] = sample
        iface = self._interfaces.get(key) or self._bind(key)
        trust = iface.trust
        violated = False
        if not (
            sample.in_bytes_per_s <= iface.rate_limit
            and sample.out_bytes_per_s <= iface.rate_limit
            and sample.interval <= iface.half_wrap
        ) or (polled_speed_bps is not None and polled_speed_bps != iface.speed_bps):
            # A rule may have a case (or the agent's ifSpeed moves the
            # limits): every validator looks at the sample its own way.
            ctx = SampleContext(
                sample=sample,
                prev=prev,
                cur=cur,
                speed_bps=iface.speed_bps,
                polled_speed_bps=polled_speed_bps,
                configured_interval=self.poll_interval,
            )
            verdicts = [v for validator in self._validators for v in validator.check(ctx)]
            violated = self._settle(key, verdicts, sample.time)
        else:
            # Only the stuck-counter rule is left: it keeps state, so it
            # sees every sample -- on the validator's own list, bound here.
            if iface.stuck is None:
                iface.stuck = self._stuck.state(key)
            stuck = self._stuck.advance(iface.stuck, sample, prev, cur)
            if stuck is None:
                if trust.score >= 1.0:
                    return True  # clean and pristine: no trust to recover
                self._settle(key, (), sample.time)
            elif stuck.decays_trust:
                self._settle(key, [stuck], sample.time)
            else:
                # Frozen counters, noted (nine idle-campus samples in ten).
                # A lone suspect that decays no trust moves no score, so
                # nothing to settle: the four tallies it does move, in place.
                self._suspects()
                self._last_offence[key] = sample.time
                trust.last_verdict = stuck
                trust.suspects += 1
        if violated or trust.quarantined:
            # Demonstrably wrong, or its source is: never let it into the table.
            self._rejected()
            return False
        return True

    def note_restart(self, node: str, if_index: int) -> None:
        """Agent restarted: streak state is meaningless, drop it."""
        self._stuck.forget(node, if_index)
        iface = self._interfaces.get((node, if_index))
        if iface is not None:
            iface.stuck = None  # the next sample binds the fresh list

    # ------------------------------------------------------------------
    # Cross-check path (called from the monitor's report cycle)
    # ------------------------------------------------------------------
    def run_cross_checks(self, now: float) -> List[IntegrityVerdict]:
        if self.cross_checker is None:
            return []
        window = self.config.offender_window_polls * self.poll_interval

        def recent_offender(node: str, if_index: int) -> bool:
            last = self._last_offence.get((node, if_index))
            return last is not None and (now - last) <= window

        applied: List[IntegrityVerdict] = []
        for finding in self.cross_checker.check(self._shadow, now, recent_offender):
            if not finding.mismatch:
                continue
            self._metrics["cross_mismatches"].inc()
            self.telemetry.events.publish(
                CROSS_CHECK_MISMATCH,
                now,
                pair=finding.pair.label,
                blamed=finding.blamed,
                detail=finding.detail,
            )
            verdicts = self.cross_checker.verdicts_for(finding)
            self.apply_external_verdicts(verdicts, now)
            applied.extend(verdicts)
        return applied

    def apply_external_verdicts(
        self, verdicts: List[IntegrityVerdict], now: float
    ) -> None:
        """Ingest verdicts produced outside the per-sample path.

        Other measurement planes (the active probe cross-validator, for
        one) reach conclusions about counter sources through evidence the
        sample validators never see.  This feeds their verdicts through
        the same record/quarantine/trust-gauge sequence the internal
        paths use, so an externally blamed interface decays and
        quarantines exactly like an internally caught one.
        """
        for verdict in verdicts:
            key = (verdict.node, verdict.if_index)
            if key not in self._interfaces:
                self._bind(key)
            self._settle(key, [verdict], now)

    # ------------------------------------------------------------------
    # Queries (calculator, monitor, CLI)
    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        """Global quarantine clock (see :class:`QuarantineManager`)."""
        return self.quarantine.clock

    def epoch_of(self, node: str, if_index: int) -> int:
        """Quarantine enter/release epoch of one interface."""
        return self.quarantine.epoch_of(node, if_index)

    def is_quarantined(self, node: str, if_index: int) -> bool:
        return self.quarantine.is_quarantined(node, if_index)

    def trust(self, node: str, if_index: int) -> float:
        return self.quarantine.trust(node, if_index)

    def quarantined_keys(self) -> List[Key]:
        return self.quarantine.quarantined_keys()

    def status(self) -> Dict[str, object]:
        """Structured pipeline state for the CLI / JSON surfaces."""
        interfaces = []
        for key, rec in sorted(self.quarantine.records().items()):
            interfaces.append(
                {
                    "node": key[0],
                    "if_index": key[1],
                    "trust": round(rec.score, 4),
                    "quarantined": rec.quarantined,
                    "violations": rec.violations,
                    "suspects": rec.suspects,
                    "wrap_risk": key in self._wrap_warned,
                    "last_verdict": str(rec.last_verdict) if rec.last_verdict else None,
                }
            )
        pairs = []
        if self.cross_checker is not None:
            for pair in self.cross_checker.pairs:
                pairs.append(
                    {
                        "pair": pair.label,
                        "mismatch_streak": self.cross_checker._streaks.get(pair.label, 0),
                    }
                )
        return {
            "interfaces": interfaces,
            "pairs": pairs,
            "quarantined": [f"{n}:{i}" for n, i in self.quarantined_keys()],
            "wrap_risky": [f"{n}:{i}" for n, i in self.wrap_risky_interfaces],
        }

    # ------------------------------------------------------------------
    def _settle(self, key: Key, verdicts: Sequence[IntegrityVerdict], now: float) -> bool:
        """Everything one interface's verdicts -- or their absence, a
        clean poll -- move: counters and events per verdict, then the
        trust score and quarantine state, then the transition counters.
        True when a verdict was a violation."""
        violated = False
        for verdict in verdicts:
            if verdict.severity is Severity.VIOLATION:
                violated = True
                self._metrics["violations"].inc()
                self._metrics["violations_by_check"].labels(check=verdict.check).inc()
                self._last_offence[key] = now
                self.telemetry.events.publish(
                    INTEGRITY_VIOLATION,
                    now,
                    check=verdict.check,
                    node=verdict.node,
                    if_index=verdict.if_index,
                    detail=verdict.detail,
                )
                if self.health is not None:
                    self.health.record_data_violation(verdict.node, now)
            elif verdict.severity is Severity.SUSPECT:
                self._suspects()
                if verdict.check == "stuck_counters":
                    # Frozen counters are offender evidence for the
                    # cross-checker even though they do not decay trust.
                    self._last_offence[key] = now
        totals = self.quarantine
        if verdicts:
            totals.apply(key[0], key[1], verdicts, now)
        else:
            totals.record_clean(key[0], key[1], now)
        # After an enter or a release the two transition counters catch up
        # (the gauges read the manager and the records when collected).
        for counter, total in (
            (self._metrics["quarantines"], totals.quarantines),
            (self._metrics["releases"], totals.releases),
        ):
            if total > counter.value:
                counter.inc(total - counter.value)
        return violated
