"""Resource-management middleware loop: monitor -> detect -> diagnose -> advise.

:class:`RmMiddleware` is the integration object a scenario instantiates
next to a monitor of any plane (a
:class:`~repro.core.monitor.ReportCore`).  It subscribes to
the monitor's report stream; each report is routed to the matching
requirement's detector; violation transitions trigger diagnosis and (if an
advisor is configured) reallocation advice, all recorded in the action
log the experiments and examples print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.monitor import ReportCore
from repro.core.report import PathReport
from repro.rm.allocator import PlacementAdvice, ReallocationAdvisor
from repro.rm.detector import (
    QosEvent,
    QosState,
    StreamViolationAdapter,
    ViolationDetector,
)
from repro.rm.diagnosis import BottleneckDiagnosis, diagnose
from repro.rm.qos import QosRequirement
from repro.telemetry.events import QOS_RECOVERY, QOS_VIOLATION


@dataclass
class RmAction:
    """One entry in the middleware's action log."""

    time: float
    event: QosEvent
    diagnosis: Optional[BottleneckDiagnosis] = None
    advice: List[PlacementAdvice] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [str(self.event)]
        if self.diagnosis is not None:
            lines.append(f"  diagnosis: {self.diagnosis.explanation}")
        for placement in self.advice[:3]:
            marker = "+" if placement.avoids_bottleneck else "-"
            lines.append(
                f"  {marker} move to {placement.host}: "
                f"{placement.available_bps / 1000:.0f} KB/s available"
            )
        return "\n".join(lines)


class RmMiddleware:
    """Network-QoS slice of the DeSiDeRaTa adaptation loop."""

    def __init__(
        self,
        monitor: ReportCore,
        requirements: Sequence[QosRequirement],
        breach_count: int = 2,
        clear_count: int = 2,
        advise_reallocation: bool = True,
        stream: bool = False,
    ) -> None:
        """``stream=True`` consumes push events from the monitor's
        stream publisher (enabling streaming if needed) instead of the
        snapshot report callback; hysteresis decisions are bit-identical
        either way (see
        :class:`~repro.rm.detector.StreamViolationAdapter`)."""
        self.monitor = monitor
        self.spec = monitor.spec
        self._events = monitor.telemetry.events
        self.detectors: Dict[str, ViolationDetector] = {}
        self.actions: List[RmAction] = []
        self._advisor = (
            ReallocationAdvisor(self.spec, monitor.calculator)
            if advise_reallocation
            else None
        )
        for requirement in requirements:
            if requirement.watch_label in self.detectors:
                raise ValueError(
                    f"duplicate requirement for path {requirement.watch_label}"
                )
            # Ensure the monitor is actually watching this path.
            if requirement.watch_label not in self.monitor.watched_paths():
                self.monitor.watch_path(requirement.src, requirement.dst)
            self.detectors[requirement.watch_label] = ViolationDetector(
                requirement, breach_count=breach_count, clear_count=clear_count
            )
        self.stream_adapters: List[StreamViolationAdapter] = []
        if stream:
            publisher = monitor.enable_streaming()
            for requirement in requirements:
                adapter = StreamViolationAdapter(requirement, self._on_report)
                adapter.attach(publisher)
                self.stream_adapters.append(adapter)
        else:
            monitor.subscribe(self._on_report)

    # ------------------------------------------------------------------
    # Report handling
    # ------------------------------------------------------------------
    def _on_report(self, report: PathReport) -> None:
        detector = self.detectors.get(report.label)
        if detector is None:
            return
        event = detector.offer(report)
        if event is None:
            return
        action = RmAction(time=event.time, event=event)
        requirement = detector.requirement
        if event.state is QosState.VIOLATED:
            action.diagnosis = diagnose(self.spec, report)
            if self._advisor is not None:
                action.advice = self._advisor.advise(
                    requirement.src,
                    requirement.dst,
                    diagnosis=action.diagnosis,
                    min_available_bps=requirement.min_available_bps or 0.0,
                    time=event.time,
                )
            self._events.publish(
                QOS_VIOLATION,
                event.time,
                reason=event.reason or "",
                **requirement.event_attrs(),
            )
        elif self.actions:  # an OK after earlier events is a recovery
            self._events.publish(
                QOS_RECOVERY, event.time, **requirement.event_attrs()
            )
        self.actions.append(action)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state_of(self, watch_label: str) -> QosState:
        return self.detectors[watch_label].state

    def violations(self) -> List[RmAction]:
        return [a for a in self.actions if a.event.state is QosState.VIOLATED]

    def recoveries(self) -> List[RmAction]:
        return [
            a
            for a in self.actions
            if a.event.state is QosState.OK and a is not self.actions[0]
        ]

    def format_log(self) -> str:
        return "\n".join(str(action) for action in self.actions) or "(no QoS events)"
