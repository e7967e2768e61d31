"""The sample path as it was before it was made cheap, kept as the
reference the cheap one is held equal to.

Until PR 20 a polled interface's sample cost 57 Python calls between the
decoded poll reply and the root's rate table.  What it costs now is in
``docs/architecture.md`` ("A sample"); what it *does* must not
have moved, and the bodies below -- the parent commit's, verbatim, hung
on subclasses of today's classes so that construction, configuration and
everything that was not rewritten is shared -- are how the tests know:

- :class:`ReferencePipeline` is the old ``IntegrityPipeline.inspect``: a
  ``SampleContext`` per sample, four validators each returning a list,
  ``_record_verdicts``, ``quarantine.apply`` / ``record_clean`` by key,
  ``_sync_trust_gauge`` through a dict of gauge children.  Its validators
  (:class:`ReferenceStuck` replaces its ``[streak, was_active]`` list on
  every call) and its :class:`ReferenceQuarantine` (``_update_state``
  after every call) are the old ones too.
- :class:`ReferencePoller` is the old reply parser and ``_ingest``: a raw
  snapshot per interface and every sample derived, moved or not.

A raw reading is ``(sysUpTime, six counters)`` in the poller's column
order, as the product hands it to ``inspect``; the bodies read it by
index where they read a snapshot's fields by name.  (The old float
uplink's codec, which this module also kept, went with that format.)

Nothing here is called by the product.
"""

from typing import List

from repro.core.poller import (
    _ABSENT,
    _ALL_COUNTER32,
    _COLUMNS,
    _WRAP,
    InterfaceRates,
    PollTarget,
    SnmpPoller,
)
from repro.integrity.pipeline import IntegrityPipeline
from repro.integrity.quarantine import QuarantineManager, TrustRecord
from repro.integrity.validators import (
    _COUNTER_SPAN,
    IntegrityVerdict,
    RateBoundValidator,
    SampleContext,
    Severity,
    SpeedValidator,
    StuckCounterValidator,
    WrapRiskValidator,
    wrap_period_seconds,
)
from repro.snmp.ber import TAG_GAUGE32, TAG_INTEGER
from repro.snmp.mib import IF_OPER_STATUS, IF_SPEED, IF_STATUS_UP
from repro.telemetry.events import AGENT_RESTART, CROSS_CHECK_MISMATCH, INTEGRITY_VIOLATION


# ----------------------------------------------------------------------
# Integrity: validators, quarantine, pipeline
# ----------------------------------------------------------------------
class ReferenceRateBound(RateBoundValidator):
    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        speed = ctx.polled_speed_bps or ctx.speed_bps
        if not speed:
            return []
        limit = (speed / 8.0) * (1.0 + self.tolerance)
        verdicts: List[IntegrityVerdict] = []
        # Remotely shipped samples arrive without raw snapshots; the rate
        # bound still applies, only the regression diagnosis is skipped.
        have_raw = ctx.prev is not None and ctx.cur is not None
        directions = (
            (
                "in",
                ctx.sample.in_bytes_per_s,
                ctx.cur[1][0] if have_raw else None,
                ctx.prev[1][0] if have_raw else None,
            ),
            (
                "out",
                ctx.sample.out_bytes_per_s,
                ctx.cur[1][1] if have_raw else None,
                ctx.prev[1][1] if have_raw else None,
            ),
        )
        for name, rate, cur, prev in directions:
            if rate <= limit:
                continue
            regressed = have_raw and cur < prev
            verdicts.append(
                IntegrityVerdict(
                    check="counter_regression" if regressed else "rate_bound",
                    severity=Severity.VIOLATION,
                    node=ctx.sample.node,
                    if_index=ctx.sample.if_index,
                    time=ctx.sample.time,
                    detail=(
                        f"{name} rate {rate:.0f} B/s exceeds"
                        f" {limit:.0f} B/s ({speed / 1e6:.0f} Mb/s"
                        f" +{self.tolerance:.0%})"
                        + (" after raw counter regression" if regressed else "")
                    ),
                )
            )
        return verdicts


class ReferenceStuck(StuckCounterValidator):
    @staticmethod
    def _frozen(ctx: SampleContext) -> bool:
        prev, cur = ctx.prev, ctx.cur
        if prev is None or cur is None:
            # No raw snapshots (remotely shipped sample): fall back to the
            # derived figures -- all-zero rates mean the counters did not
            # move over the sample's interval.
            s = ctx.sample
            return (
                s.in_bytes_per_s == 0.0
                and s.out_bytes_per_s == 0.0
                and s.in_pkts_per_s == 0.0
                and s.out_pkts_per_s == 0.0
            )
        cur, prev = cur[1], prev[1]  # octets in and out, unicast in and out
        return (
            cur[0] == prev[0]
            and cur[1] == prev[1]
            and cur[2] == prev[2]
            and cur[3] == prev[3]
        )

    def forget(self, node: str, if_index: int) -> None:
        """Drop streak state (agent restarted: baselines are new)."""
        self._state.pop((node, if_index), None)

    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        key = (ctx.sample.node, ctx.sample.if_index)
        streak, was_active = self._state.get(key, (0, False))
        if self._frozen(ctx):
            streak += 1
        else:
            streak, was_active = 0, True
        self._state[key] = [streak, was_active]
        if was_active and streak >= self.stuck_after:
            return [
                IntegrityVerdict(
                    check="stuck_counters",
                    severity=Severity.SUSPECT,
                    node=ctx.sample.node,
                    if_index=ctx.sample.if_index,
                    time=ctx.sample.time,
                    detail=(
                        f"counters frozen for {streak} consecutive polls"
                        " after earlier activity"
                    ),
                    decays_trust=self.decay_trust,
                )
            ]
        return []


class ReferenceSpeed(SpeedValidator):
    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        declared, polled = ctx.speed_bps, ctx.polled_speed_bps
        if not declared or polled is None or declared >= _COUNTER_SPAN:
            return []
        if abs(polled - declared) <= declared * self.rel_tolerance:
            return []
        return [
            IntegrityVerdict(
                check="speed_mismatch",
                severity=Severity.VIOLATION,
                node=ctx.sample.node,
                if_index=ctx.sample.if_index,
                time=ctx.sample.time,
                detail=(
                    f"agent claims ifSpeed {polled / 1e6:g} Mb/s,"
                    f" topology declares {declared / 1e6:g} Mb/s"
                ),
            )
        ]


class ReferenceWrapRisk(WrapRiskValidator):
    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        speed = ctx.speed_bps
        if not speed:
            return []
        half_wrap = wrap_period_seconds(speed) / 2.0
        if ctx.sample.interval <= half_wrap:
            return []
        return [
            IntegrityVerdict(
                check="wrap_risk",
                severity=Severity.SUSPECT,
                node=ctx.sample.node,
                if_index=ctx.sample.if_index,
                time=ctx.sample.time,
                detail=(
                    f"measured interval {ctx.sample.interval:.0f} s exceeds"
                    f" half the Counter32 wrap period ({half_wrap:.0f} s at"
                    f" {speed / 1e6:g} Mb/s); a double wrap would go unseen"
                ),
                decays_trust=False,
            )
        ]


class ReferenceQuarantine(QuarantineManager):
    def record(self, node: str, if_index: int) -> TrustRecord:
        return self._records.setdefault((node, if_index), TrustRecord())

    def apply(self, node, if_index, verdicts, now) -> TrustRecord:
        """Decay trust per the verdicts, then update quarantine state."""
        rec = self.record(node, if_index)
        for verdict in verdicts:
            rec.last_verdict = verdict
            if verdict.severity is Severity.VIOLATION:
                rec.violations += 1
                if verdict.decays_trust:
                    rec.score *= self.violation_decay
            elif verdict.severity is Severity.SUSPECT:
                rec.suspects += 1
                if verdict.decays_trust:
                    rec.score *= self.suspect_decay
        self._update_state(node, if_index, rec, now)
        return rec

    def record_clean(self, node: str, if_index: int, now: float) -> TrustRecord:
        """A poll passed every validator: recover some trust."""
        rec = self.record(node, if_index)
        rec.score = min(1.0, rec.score + self.recover_step)
        self._update_state(node, if_index, rec, now)
        return rec


class ReferencePipeline(IntegrityPipeline):
    """Today's construction, the parent's per-sample and verdict paths."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.config
        self._stuck = ReferenceStuck(
            stuck_after=cfg.stuck_after, decay_trust=cfg.stuck_decays_trust
        )
        self._validators = [
            ReferenceRateBound(tolerance=cfg.rate_tolerance),
            self._stuck,
            ReferenceSpeed(rel_tolerance=cfg.speed_rel_tolerance),
            ReferenceWrapRisk(),
        ]
        self.quarantine = ReferenceQuarantine(
            quarantine_below=cfg.quarantine_below,
            release_above=cfg.release_above,
            violation_decay=cfg.violation_decay,
            suspect_decay=cfg.suspect_decay,
            recover_step=cfg.recover_step,
            events=self.telemetry.events,
        )
        self._trust_gauges = {}  # labelled child per interface
        self._transitions_synced = 0  # enter + release transitions the aggregates show

    def inspect(self, sample, prev, cur, polled_speed_bps=None) -> bool:
        """Validate one sample; return True when it may enter the table."""
        key = (sample.node, sample.if_index)
        self._shadow[key] = sample
        ctx = SampleContext(
            sample=sample,
            prev=prev,
            cur=cur,
            speed_bps=self.speeds.get(key),
            polled_speed_bps=polled_speed_bps,
            configured_interval=self.poll_interval,
        )
        verdicts: List[IntegrityVerdict] = []
        for validator in self._validators:
            verdicts.extend(validator.check(ctx))
        violating = [v for v in verdicts if v.severity is Severity.VIOLATION]
        suspects = [v for v in verdicts if v.severity is Severity.SUSPECT]
        if verdicts:
            self._record_verdicts(key, verdicts, sample.time)
            rec = self.quarantine.apply(key[0], key[1], verdicts, sample.time)
        if not violating and not suspects:
            rec = self.quarantine.record_clean(key[0], key[1], sample.time)
        self._sync_trust_gauge(key, rec)
        if violating:
            self._metrics["rejected"].inc()
            return False  # demonstrably wrong: never let it into the table
        if rec.quarantined:
            self._metrics["rejected"].inc()
            return False
        return True

    def note_restart(self, node: str, if_index: int) -> None:
        """Agent restarted: streak state is meaningless, drop it."""
        self._stuck.forget(node, if_index)

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
            for verdict in verdicts:
                key = (verdict.node, verdict.if_index)
                self._record_verdicts(key, [verdict], now)
                self._sync_trust_gauge(
                    key, self.quarantine.apply(key[0], key[1], [verdict], now)
                )
            applied.extend(verdicts)
        return applied

    def apply_external_verdicts(self, verdicts, now: float) -> None:
        for verdict in verdicts:
            key = (verdict.node, verdict.if_index)
            self._record_verdicts(key, [verdict], now)
            self._sync_trust_gauge(
                key, self.quarantine.apply(key[0], key[1], [verdict], now)
            )

    def _record_verdicts(self, key, verdicts, now: float) -> None:
        for verdict in verdicts:
            if verdict.severity is Severity.VIOLATION:
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
                self._metrics["suspects"].inc()
                if verdict.check == "stuck_counters":
                    # Frozen counters are offender evidence for the
                    # cross-checker even though they do not decay trust.
                    self._last_offence[key] = now

    def _sync_trust_gauge(self, key, rec: TrustRecord) -> None:
        gauge = self._trust_gauges.get(key)
        if gauge is None:
            gauge = self._trust_gauges[key] = self._metrics["trust"].labels(
                interface=f"{key[0]}:{key[1]}"
            )
        gauge.set(round(rec.score, 4))
        totals = self.quarantine
        transitions = totals.quarantines + totals.releases
        if transitions == self._transitions_synced:
            return  # the aggregates move at enter/release only
        self._transitions_synced = transitions
        metrics = self._metrics
        metrics["quarantined"].set(float(totals.quarantined))
        behind = totals.quarantines - metrics["quarantines"].value
        if behind > 0:
            metrics["quarantines"].inc(behind)
        behind = totals.releases - metrics["releases"].value
        if behind > 0:
            metrics["releases"].inc(behind)


# ----------------------------------------------------------------------
# The worker's poller: a snapshot per interface, every sample derived
# ----------------------------------------------------------------------
class ReferencePoller(SnmpPoller):
    """The parent's reply parser and ``_ingest``: a raw reading per
    interface per reply, kept as the baseline; every sample derived
    by the modular arithmetic, moved or not; the uptime judged, and a
    restart counted and published, once per interface."""

    def _on_response(self, target: PollTarget, reply) -> None:
        self.health.record_success(target.node, self.sim.now)
        uptime, tables = reply
        if uptime is None:
            self._m_parse_errors.inc()
            return
        counters = [tables[col] for col in _COLUMNS]
        track_status = target.include_oper_status and self.on_status is not None
        statuses = tables[IF_OPER_STATUS] if track_status else {}
        speeds = tables[IF_SPEED] if target.include_speed else {}
        for index in dict.fromkeys(target.if_indexes):
            tag, status = statuses.get(index, _ABSENT)
            if tag == TAG_INTEGER:
                self.on_status(target.node, index, status == IF_STATUS_UP)
            tags, values = zip(*[table.get(index, _ABSENT) for table in counters])
            if tags != _ALL_COUNTER32:
                self._m_parse_errors.inc()
                continue
            tag, speed = speeds.get(index, _ABSENT)
            self._ingest(
                target.node, index, (uptime, values),
                float(speed) if tag == TAG_GAUGE32 else None,
            )
        if self._uncounted:
            self._m_samples.inc(self._uncounted)
            self._uncounted = 0

    def _ingest(self, node, if_index, snapshot, polled_speed=None) -> None:
        key = (node, if_index)
        previous = self._last.get(key)
        self._last[key] = snapshot
        if previous is None:
            return  # first poll only establishes the baseline
        seconds = ((snapshot[0] - previous[0]) % _WRAP) / 100.0
        if seconds <= 0:
            # Same-tick duplicate; drop the sample.
            return
        if seconds > self.max_plausible_interval:
            self._m_restarts.inc()
            self.telemetry.events.publish(
                AGENT_RESTART, self.sim.now, node=node, if_index=if_index
            )
            if self.integrity is not None:
                self.integrity.note_restart(node, if_index)
            return
        # "The old value is subtracted from the new one", modulo the wrap.
        new, old = snapshot[1], previous[1]  # octets, unicast, non-unicast; in, out
        in_pkts = (new[2] - old[2]) % _WRAP + (new[4] - old[4]) % _WRAP
        out_pkts = (new[3] - old[3]) % _WRAP + (new[5] - old[5]) % _WRAP
        sample = InterfaceRates(
            node=node,
            if_index=if_index,
            time=self.sim.now,
            interval=seconds,
            in_bytes_per_s=(new[0] - old[0]) % _WRAP / seconds,
            out_bytes_per_s=(new[1] - old[1]) % _WRAP / seconds,
            in_pkts_per_s=in_pkts / seconds,
            out_pkts_per_s=out_pkts / seconds,
        )
        self._uncounted += 1
        if self.integrity is not None and not self.integrity.inspect(
            sample, previous, snapshot, polled_speed
        ):
            return
        self.on_sample(sample)
