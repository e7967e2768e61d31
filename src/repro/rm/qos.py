"""Network QoS requirements for real-time communication paths.

A requirement binds a monitored host pair to thresholds the middleware
enforces: a minimum available bandwidth (bytes/second) and/or a maximum
utilisation of the path's bottleneck connection.  Requirements are
normally declared in the spec language (``qospath`` blocks) and converted
with :meth:`QosRequirement.from_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.core.report import PathReport
from repro.topology.model import QosPathSpec, TopologyError


@dataclass(frozen=True)
class QosRequirement:
    """Thresholds for one watched path."""

    name: str
    src: str
    dst: str
    min_available_bps: Optional[float] = None  # bytes/second
    max_utilization: Optional[float] = None  # fraction of bottleneck capacity
    # Reports below this confidence are *suppressed* -- not judged at
    # all -- rather than counted as breaches or clears.  A quarantined
    # or stale-but-breathing path should neither trigger adaptation nor
    # mask a real violation with untrustworthy numbers.  Unavailable
    # reports are always judged (and always breach): total ignorance is
    # itself actionable.  0.0 disables suppression.
    min_confidence: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_confidence <= 1.0:
            raise TopologyError(
                f"min_confidence for {self.name!r} must be in [0, 1]"
            )
        if self.min_available_bps is None and self.max_utilization is None:
            raise TopologyError(
                f"QoS requirement {self.name!r} needs at least one threshold"
            )
        if self.min_available_bps is not None and self.min_available_bps < 0:
            raise TopologyError(f"negative min_available for {self.name!r}")
        if self.max_utilization is not None and not 0 < self.max_utilization <= 1:
            raise TopologyError(f"max_utilization for {self.name!r} must be in (0, 1]")

    @classmethod
    def from_spec(cls, spec: QosPathSpec) -> "QosRequirement":
        """Convert a spec-language ``qospath`` block.

        Spec rates are bits/second (the language's unit system); monitor
        reports are bytes/second, so the threshold converts here, once.
        """
        return cls(
            name=spec.name,
            src=spec.src,
            dst=spec.dst,
            min_available_bps=(
                spec.min_available_bps / 8.0 if spec.min_available_bps is not None else None
            ),
            max_utilization=spec.max_utilization,
        )

    @property
    def watch_label(self) -> str:
        """The monitor watch label this requirement evaluates against."""
        return f"{self.src}<->{self.dst}"

    def event_attrs(self) -> Dict[str, Union[str, float]]:
        """Flat attributes identifying this requirement on telemetry events.

        Only thresholds that are actually set appear, so event consumers
        can distinguish a bandwidth floor from a utilisation ceiling.
        """
        attrs: Dict[str, Union[str, float]] = {
            "requirement": self.name,
            "path": self.watch_label,
        }
        if self.min_available_bps is not None:
            attrs["min_available_bps"] = self.min_available_bps
        if self.max_utilization is not None:
            attrs["max_utilization"] = self.max_utilization
        return attrs

    def suppresses(self, report: PathReport) -> bool:
        """Should this report be withheld from violation judgement?

        True for degraded-but-not-unavailable reports whose confidence
        falls below ``min_confidence`` and for reports leaning on a
        quarantined counter source: their numbers are not evidence in
        either direction.  Unavailable reports are never suppressed.
        """
        if report.unavailable:
            return False
        if self.min_confidence > 0.0 and report.confidence < self.min_confidence:
            return True
        return self.min_confidence > 0.0 and report.any_quarantined

    def violation_reason(self, report: PathReport) -> Optional[str]:
        """Human-readable reason, or None when ``report`` meets every threshold.

        This is the predicate the violation detector evaluates.  An
        ``unavailable`` report (the monitor has no fresh data for the
        path) never meets a requirement: "no idea" must be treated
        conservatively, not as silence.  NaN comparisons would otherwise
        read as healthy.
        """
        if report.unavailable:
            age = report.freshness
            return (
                "path measurement unavailable "
                f"({'no data ever' if age is None else f'stalest sample {age:.1f}s old'})"
            )
        if self.min_available_bps is not None and report.available_bps < self.min_available_bps:
            return (
                f"available {report.available_bps / 1000:.1f} KB/s below required "
                f"{self.min_available_bps / 1000:.1f} KB/s"
            )
        if self.max_utilization is not None:
            bottleneck = report.bottleneck
            if bottleneck is not None and bottleneck.utilization > self.max_utilization:
                return (
                    f"bottleneck {bottleneck.connection} at "
                    f"{bottleneck.utilization * 100:.0f}% > "
                    f"{self.max_utilization * 100:.0f}% allowed"
                )
        return None
