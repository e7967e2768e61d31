"""QoS violation detection with hysteresis.

Single-interval bandwidth samples spike (the paper's max errors reach
16 %), so declaring a violation on one bad report would flap.  The
detector requires ``breach_count`` consecutive breaching reports to enter
VIOLATED and ``clear_count`` consecutive healthy ones to leave it --
standard debouncing, and the "QoS violation detection" the paper lists as
future work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, List, Optional

from repro.core.report import PathReport
from repro.rm.qos import QosRequirement


class QosState(Enum):
    UNKNOWN = "unknown"  # no reports yet
    OK = "ok"
    VIOLATED = "violated"


@dataclass(frozen=True)
class QosEvent:
    """Emitted on every state transition."""

    requirement: QosRequirement
    state: QosState
    time: float
    report: PathReport
    reason: Optional[str]  # breach reason on entry to VIOLATED

    def __str__(self) -> str:
        tail = f" ({self.reason})" if self.reason else ""
        return f"[{self.time:.1f}s] {self.requirement.name}: {self.state.value}{tail}"


EventCallback = Callable[[QosEvent], None]


class ViolationDetector:
    """Debounced threshold detector for one requirement."""

    def __init__(
        self,
        requirement: QosRequirement,
        breach_count: int = 2,
        clear_count: int = 2,
    ) -> None:
        if breach_count < 1 or clear_count < 1:
            raise ValueError("hysteresis counts must be >= 1")
        self.requirement = requirement
        self.breach_count = breach_count
        self.clear_count = clear_count
        self.state = QosState.UNKNOWN
        self._consecutive_breaches = 0
        self._consecutive_ok = 0
        self.events: List[QosEvent] = []
        self._callbacks: List[EventCallback] = []
        self.reports_seen = 0
        self.reports_suppressed = 0
        self.reports_duplicate = 0
        self._last_time: Optional[float] = None

    def subscribe(self, callback: EventCallback) -> None:
        self._callbacks.append(callback)

    def offer(self, report: PathReport) -> Optional[QosEvent]:
        """Feed one report; returns the event if the state changed."""
        if report.label != self.requirement.watch_label and report.name != self.requirement.name:
            return None  # not ours
        if report.time == self._last_time:
            # The incremental matrix hands unchanged pairs the *same*
            # report object; a consumer relaying such a snapshot must not
            # advance the hysteresis streaks twice for one instant.
            self.reports_duplicate += 1
            return None
        self._last_time = report.time
        self.reports_seen += 1
        if self.requirement.suppresses(report):
            # Untrusted numbers are not evidence: hold both streaks
            # where they are rather than counting a breach or a clear.
            self.reports_suppressed += 1
            return None
        reason = self.requirement.violation_reason(report)
        if reason is not None:
            self._consecutive_breaches += 1
            self._consecutive_ok = 0
        else:
            self._consecutive_ok += 1
            self._consecutive_breaches = 0

        new_state = self.state
        if self.state in (QosState.UNKNOWN, QosState.OK):
            if self._consecutive_breaches >= self.breach_count:
                new_state = QosState.VIOLATED
            elif self.state is QosState.UNKNOWN and self._consecutive_ok >= 1:
                new_state = QosState.OK
        elif self.state is QosState.VIOLATED:
            if self._consecutive_ok >= self.clear_count:
                new_state = QosState.OK

        if new_state is self.state:
            return None
        self.state = new_state
        event = QosEvent(
            requirement=self.requirement,
            state=new_state,
            time=report.time,
            report=report,
            reason=reason if new_state is QosState.VIOLATED else None,
        )
        self.events.append(event)
        for callback in self._callbacks:
            callback(event)
        return event

    @property
    def violated(self) -> bool:
        return self.state is QosState.VIOLATED


class StreamViolationAdapter:
    """Feeds a detector from stream events instead of monitor callbacks.

    The thin bridge between :mod:`repro.stream` and the RM loop: a
    subscription with ``deliver_unchanged=True`` on the requirement's
    host pair hands this adapter one event per publish cycle; the
    adapter lifts the event's :class:`~repro.core.report.PathReport`
    out, renames it to the requirement's watch label (matrix reports are
    named ``matrix:a<->b``; the detector routes by label), and forwards
    it to ``sink`` -- a :meth:`ViolationDetector.offer` bound method or
    the middleware's report handler.

    Because the heartbeat subscription delivers the *same per-cycle
    cadence* snapshot mode delivers (every cycle, filtered by neither
    dirtiness nor significance deadbands), the detector's
    consecutive-sample hysteresis sees identical evidence and makes
    bit-identical decisions in both modes -- the invariant
    ``tests/test_stream.py`` guards.
    """

    __slots__ = ("requirement", "sink", "events_seen")

    def __init__(
        self, requirement: QosRequirement, sink: Callable[[PathReport], None]
    ) -> None:
        self.requirement = requirement
        self.sink = sink
        self.events_seen = 0

    def subscription_name(self) -> str:
        return f"rm:{self.requirement.watch_label}"

    def attach(self, publisher) -> None:
        """Subscribe this adapter to a stream publisher (push mode)."""
        publisher.manager.subscribe(
            self.subscription_name(),
            pairs=[(self.requirement.src, self.requirement.dst)],
            callback=self.on_event,
            deliver_unchanged=True,
        )

    def on_event(self, event) -> None:
        report = getattr(event, "report", None)
        if report is None:
            return  # query events carry no report
        self.events_seen += 1
        self.sink(replace(report, name=self.requirement.watch_label))
