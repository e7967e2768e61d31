"""Active-vs-passive cross-validation: the probe plane checks the SNMP plane.

The passive monitor's ``available_bps`` is an *inference* from interface
counters; a probe train's ``achievable_bps`` is an *observation* of what
the path actually delivers.  The two are not directly comparable point
values: a back-to-back train that arrives at the bottleneck contiguously
measures the bottleneck's *capacity*, while one pre-paced by an earlier
equal-speed link interleaves with cross-traffic and measures its
*residual* share.  What passive monitoring claims is therefore an
**envelope**: any honest probe figure must land between the path's
claimed available bandwidth and its claimed capacity,

    available - tol  <=  achievable  <=  capacity + tol

A probe *below* the envelope saw traffic (or a slow wire) the counters
did not account for; one *above* it saw a wire faster than the counters
claim.  Either way one of the planes is wrong -- and because the probe
carried real packets end to end, suspicion falls on the passive side.
The validator localizes the cause the same way :mod:`repro.integrity`'s
two-ended cross-checks blame a byzantine counter:

- ``unmetered_segment`` -- the path crosses a connection no counter
  observes (rule ``"unmeasured"``, typically a hub pocket behind an
  agentless device).  Cross-traffic there is invisible to SNMP; only the
  probe sees the shrunken residual capacity.
- ``stale_counter`` -- some backing sample is older than the staleness
  bound; the passive figure describes the past.
- ``quarantine_candidate_agent`` -- every connection is metered and
  fresh, yet the wire contradicts the arithmetic: the bottleneck's
  counter source is claiming figures (speed, rates) the path cannot
  honour, e.g. a ``SpeedMisreport`` liar whose claimed ifSpeed matches
  the spec while the physical link negotiated lower.  The source is
  reported to the integrity quarantine as a SUSPECT.

An active disagreement caps the path's report confidence (the monitor
applies :data:`CONFIDENCE_CAP`) until the planes
re-agree, at which point a recovery is signalled and the cap lifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro._numpy import np
from repro.core.report import ConnectionMeasurement, PathReport
from repro.integrity.validators import IntegrityVerdict, Severity
from repro.probe.stats import ProbeReport

#: Ceiling on a path's report confidence while a disagreement is active.
CONFIDENCE_CAP = 0.4
#: A probe figure this far (relative, and never under the absolute floor,
#: in bytes/s) outside the passive envelope disagrees with it.
REL_TOLERANCE = 0.35
ABS_FLOOR_BPS = 100_000.0
#: Consecutive disagreeing rounds before a finding is raised.
BREACH_COUNT = 2


@dataclass(frozen=True)
class ProbeDisagreementFinding:
    """One debounced active/passive disagreement, localized."""

    label: str
    src: str
    dst: str
    time: float
    probe_bps: float  # active achievable, wire bytes/s
    passive_bps: float  # passive available, wire bytes/s
    capacity_bps: float  # passive claimed path capacity, wire bytes/s
    mismatch_bps: float  # distance outside the [available, capacity] envelope
    direction: str  # "below" (saw less than available) | "above" (beat capacity)
    cause: str  # "unmetered_segment" | "stale_counter" | "quarantine_candidate_agent"
    blamed: str  # connection or counter source the cause points at
    detail: str
    streak: int  # consecutive disagreeing rounds behind this finding
    # (node, if_index) of the suspect counter source, when one exists.
    blamed_source: Optional[Tuple[str, int]] = None

    def __str__(self) -> str:
        return (
            f"[{self.time:9.3f}s] {self.label}: PROBE DISAGREES -- active "
            f"{self.probe_bps / 1000:.1f} vs passive {self.passive_bps / 1000:.1f} "
            f"KB/s ({self.cause}: {self.blamed})"
        )


class ProbeCrossValidator:
    """Debounced comparison of probe reports against passive path reports.

    ``calculator`` (a :class:`~repro.core.bandwidth.BandwidthCalculator`)
    is optional; when present it resolves counter sources so findings can
    name the suspect ``(node, if_index)`` for the quarantine.
    """

    def __init__(self, calculator=None) -> None:
        self.calculator = calculator
        self._streaks: Dict[str, int] = {}
        #: Findings currently holding a confidence cap, per path label.
        self.active: Dict[str, ProbeDisagreementFinding] = {}
        self.comparisons = 0
        self.disagreements = 0

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    @staticmethod
    def _path_capacity(passive: PathReport) -> float:
        capacities = [m.capacity_bps for m in passive.connections]
        return min(capacities) if capacities else float("nan")

    def _disagree(
        self, probe_bps: float, available_bps: float, capacity_bps: float
    ) -> Optional[str]:
        """``"below"``/``"above"`` when outside the envelope, else None."""
        floor = available_bps - max(
            ABS_FLOOR_BPS, REL_TOLERANCE * available_bps
        )
        if probe_bps < floor:
            return "below"
        if not np.isnan(capacity_bps):
            ceiling = capacity_bps + max(
                ABS_FLOOR_BPS, REL_TOLERANCE * capacity_bps
            )
            if probe_bps > ceiling:
                return "above"
        return None

    def observe(
        self, probe: ProbeReport, passive: Optional[PathReport], now: float
    ) -> Tuple[Optional[ProbeDisagreementFinding], bool]:
        """Feed one completed train and its passive counterpart.

        Returns ``(finding, recovered)``: a finding on the round that
        crosses the debounce threshold (and on each sustaining round, so
        localization stays current), and ``recovered=True`` on the round
        the planes re-agree after an active disagreement.
        """
        if (
            passive is None
            or passive.unavailable
            or not probe.delivered
            or np.isnan(passive.available_bps)
        ):
            # One plane has nothing to say; neither streaks nor resets.
            return None, False
        label = passive.label  # the watch label (may be a custom name)
        self.comparisons += 1
        capacity = self._path_capacity(passive)
        direction = self._disagree(
            probe.achievable_bps, passive.available_bps, capacity
        )
        if direction is None:
            self._streaks[label] = 0
            recovered = label in self.active
            if recovered:
                del self.active[label]
            return None, recovered
        streak = self._streaks.get(label, 0) + 1
        self._streaks[label] = streak
        if streak < BREACH_COUNT:
            return None, False
        finding = self._localize(probe, passive, capacity, direction, now, streak)
        self.disagreements += 1
        self.active[label] = finding
        return finding, False

    def confidence_cap_for(self, label: str) -> Optional[float]:
        """The cap to apply to ``label``'s reports, if one is active."""
        return CONFIDENCE_CAP if label in self.active else None

    # ------------------------------------------------------------------
    # Localization
    # ------------------------------------------------------------------
    def _source_of(self, m: ConnectionMeasurement) -> Optional[Tuple[str, int]]:
        if self.calculator is None:
            return None
        source = self.calculator.counter_source(m.connection)
        if source is None:
            return None
        return (source.node, source.if_index)

    def _localize(
        self,
        probe: ProbeReport,
        passive: PathReport,
        capacity: float,
        direction: str,
        now: float,
        streak: int,
    ) -> ProbeDisagreementFinding:
        if direction == "below":
            mismatch = passive.available_bps - probe.achievable_bps
        else:
            mismatch = probe.achievable_bps - capacity

        def finding(cause, blamed, detail, blamed_source=None):
            return ProbeDisagreementFinding(
                label=passive.label,
                src=probe.src,
                dst=probe.dst,
                time=now,
                probe_bps=probe.achievable_bps,
                passive_bps=passive.available_bps,
                capacity_bps=capacity,
                mismatch_bps=mismatch,
                direction=direction,
                cause=cause,
                blamed=blamed,
                detail=detail,
                streak=streak,
                blamed_source=blamed_source,
            )

        # A probe that *beat* the claimed capacity cannot be explained by
        # unseen traffic or stale rates -- the speed claim itself is off.
        if direction == "above":
            bottleneck = passive.bottleneck
            blamed_m = (
                bottleneck if bottleneck is not None else passive.connections[0]
            )
            blamed_source = self._source_of(blamed_m)
            blamed = (
                f"{blamed_source[0]}.if{blamed_source[1]}"
                if blamed_source is not None
                else str(blamed_m.connection)
            )
            return finding(
                "quarantine_candidate_agent",
                blamed,
                f"the wire outran the claimed path capacity by "
                f"{mismatch / 1000:.0f} KB/s; {blamed} understates its speed",
                blamed_source=blamed_source,
            )

        unmeasured = [m for m in passive.connections if not m.measured]
        if unmeasured:
            # Prefer a hub-touching blind spot: a shared medium nobody
            # meters is exactly where invisible cross-traffic lives.
            blamed_m = unmeasured[0]
            if self.calculator is not None:
                for m in unmeasured:
                    if self.calculator.hub_of(m.connection) is not None:
                        blamed_m = m
                        break
            return finding(
                "unmetered_segment",
                str(blamed_m.connection),
                f"no counter observes {blamed_m.connection}; passive assumes "
                f"it idle while the probe measures its real residual",
            )

        stale = [m for m in passive.connections if m.stale]
        if stale:
            blamed_m = min(
                stale, key=lambda m: m.sample_time if m.sample_time is not None else -1.0
            )
            age = blamed_m.sample_age
            return finding(
                "stale_counter",
                str(blamed_m.connection),
                f"sample behind {blamed_m.connection} is "
                f"{'unaged' if age is None else f'{age:.1f}s old'}; the "
                f"passive figure describes the past",
            )

        bottleneck = passive.bottleneck
        blamed_m = bottleneck if bottleneck is not None else passive.connections[0]
        blamed_source = self._source_of(blamed_m)
        blamed = (
            f"{blamed_source[0]}.if{blamed_source[1]}"
            if blamed_source is not None
            else str(blamed_m.connection)
        )
        return finding(
            "quarantine_candidate_agent",
            blamed,
            f"all connections metered and fresh, yet the wire delivers "
            f"{mismatch / 1000:.0f} KB/s less than {blamed} claims available",
            blamed_source=blamed_source,
        )

    # ------------------------------------------------------------------
    # Integrity hand-off
    # ------------------------------------------------------------------
    def verdicts_for(
        self, finding: ProbeDisagreementFinding
    ) -> List[IntegrityVerdict]:
        """Typed verdicts for the integrity quarantine, when attributable."""
        if finding.blamed_source is None:
            return []
        node, if_index = finding.blamed_source
        return [
            IntegrityVerdict(
                check="probe_cross_check",
                severity=Severity.SUSPECT,
                node=node,
                if_index=if_index,
                time=finding.time,
                detail=(
                    f"active probe on {finding.label} measured "
                    f"{finding.probe_bps / 1000:.0f} KB/s against a passive "
                    f"claim of {finding.passive_bps / 1000:.0f} KB/s"
                ),
            )
        ]
