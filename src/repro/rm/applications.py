"""Application-level resource management: the closed adaptation loop.

DeSiDeRaTa's purpose is "reallocation of resources to adapt the system to
achieve acceptable levels of QoS"; the paper's monitor supplies the
network metrics that make network-aware reallocation possible.  This
module closes the loop end to end:

1. the spec's ``application`` blocks declare programs, their host
   placements and their flows (``sends to tracker rate 300 KBps;``);
2. :class:`ApplicationRuntime` *deploys* them -- each flow becomes a real
   UDP stream between the placed hosts -- and watches each flow's network
   path with the monitor, deriving a QoS requirement from the declared
   rate plus headroom;
3. a violated flow is diagnosed and reallocation advice computed; with
   ``auto_move=True`` the runtime *executes* the best advice: it moves
   the application (stops its traffic, rebinds the watch, restarts the
   stream from/to the new host) and QoS recovers.

Everything the runtime does is visible in its event and move logs, so
experiments can assert the adaptation actually happened.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.monitor import NetworkMonitor
from repro.core.report import PathReport
from repro.rm.allocator import PlacementAdvice, ReallocationAdvisor
from repro.rm.detector import QosEvent, QosState, ViolationDetector
from repro.rm.diagnosis import BottleneckDiagnosis, diagnose
from repro.rm.qos import QosRequirement
from repro.simnet.trafficgen import StaircaseLoad, StepSchedule
from repro.topology.model import DeviceKind, TopologyError

logger = logging.getLogger("repro.rm")

MOVE_COOLDOWN = 10.0  # seconds between automatic moves: limits thrash


@dataclass
class MoveEvent:
    """One executed reallocation."""

    time: float
    app: str
    from_host: str
    to_host: str
    reason: str

    def __str__(self) -> str:
        return (
            f"[{self.time:.1f}s] moved {self.app}: {self.from_host} -> "
            f"{self.to_host} ({self.reason})"
        )


@dataclass
class _Flow:
    src_app: str
    dst_app: str
    rate_bps: float  # bits/second (spec units)
    label: str
    requirement: QosRequirement = None  # type: ignore[assignment]
    detector: ViolationDetector = None  # type: ignore[assignment]
    generator: Optional[StaircaseLoad] = None


class ApplicationRuntime:
    """Deploy, monitor and (optionally) reallocate the spec's applications."""

    def __init__(
        self,
        build,
        monitor: NetworkMonitor,
        headroom: float = 1.3,
        breach_count: int = 2,
        clear_count: int = 2,
        auto_move: bool = False,
        payload_size: int = 1472,
    ) -> None:
        if headroom < 1.0:
            raise TopologyError(f"headroom must be >= 1, got {headroom!r}")
        self.build = build
        self.spec = build.spec
        self.network = build.network
        self.monitor = monitor
        self.headroom = headroom
        self.breach_count = breach_count
        self.clear_count = clear_count
        self.auto_move = auto_move
        self.move_cooldown = MOVE_COOLDOWN
        self.payload_size = payload_size
        self.placements: Dict[str, str] = {
            app.name: app.host for app in self.spec.applications
        }
        if not self.placements:
            raise TopologyError("the spec declares no applications")
        self._advisor = ReallocationAdvisor(self.spec, monitor.calculator)
        self._flows: Dict[str, _Flow] = {}
        for app in self.spec.applications:
            for flow_spec in app.flows:
                label = f"{app.name}->{flow_spec.dst_app}"
                self._flows[label] = _Flow(
                    src_app=app.name,
                    dst_app=flow_spec.dst_app,
                    rate_bps=flow_spec.rate_bps,
                    label=label,
                )
        self.events: List[QosEvent] = []
        self.diagnoses: List[BottleneckDiagnosis] = []
        self.moves: List[MoveEvent] = []
        self._last_move_at = float("-inf")
        self._started = False
        monitor.subscribe(self._on_report)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Deploy every flow: traffic + watch + requirement + detector."""
        if self._started:
            raise TopologyError("runtime already started")
        self._started = True
        for flow in self._flows.values():
            self._bind_flow(flow)
            self._start_traffic(flow)

    def _bind_flow(self, flow: _Flow) -> None:
        src_host = self.placements[flow.src_app]
        dst_host = self.placements[flow.dst_app]
        self.monitor.watch_path(src_host, dst_host, name=flow.label)
        # The flow needs its own rate on the path, times headroom, in
        # bytes/second (monitor units).
        flow.requirement = QosRequirement(
            name=flow.label,
            src=src_host,
            dst=dst_host,
            min_available_bps=flow.rate_bps / 8.0 * self.headroom,
        )
        flow.detector = ViolationDetector(
            flow.requirement,
            breach_count=self.breach_count,
            clear_count=self.clear_count,
        )

    def _start_traffic(self, flow: _Flow) -> None:
        src_host = self.network.host(self.placements[flow.src_app])
        dst_ip = self.network.ip_of(self.placements[flow.dst_app])
        rate_bytes = flow.rate_bps / 8.0
        flow.generator = StaircaseLoad(
            src_host,
            dst_ip,
            StepSchedule([(self.network.now, rate_bytes)]),
            payload_size=self.payload_size,
        )
        flow.generator.start()

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def _on_report(self, report: PathReport) -> None:
        flow = self._flows.get(report.name or "")
        if flow is None or flow.detector is None:
            return
        event = flow.detector.offer(report)
        if event is None:
            return
        self.events.append(event)
        if event.state is not QosState.VIOLATED:
            return
        diagnosis = diagnose(self.spec, report)
        if diagnosis is not None:
            self.diagnoses.append(diagnosis)
        if self.auto_move:
            self._try_move(flow, diagnosis, event)

    def _try_move(self, flow: _Flow, diagnosis, event: QosEvent) -> None:
        now = self.network.now
        if now - self._last_move_at < self.move_cooldown:
            return
        src_host = self.placements[flow.src_app]
        dst_host = self.placements[flow.dst_app]
        occupied = set(self.placements.values())
        advice = self._advisor.advise(
            src_host,
            dst_host,
            diagnosis=diagnosis,
            min_available_bps=flow.requirement.min_available_bps or 0.0,
            time=now,
        )
        candidates = [
            a for a in advice if a.avoids_bottleneck and a.host not in occupied
        ]
        if not candidates:
            return
        self._last_move_at = now
        self.move(flow.dst_app, candidates[0].host, reason=event.reason or "violation")

    # ------------------------------------------------------------------
    # Reallocation
    # ------------------------------------------------------------------
    def move(self, app_name: str, new_host: str, reason: str = "operator") -> None:
        """Relocate an application and rebind everything it touches."""
        if app_name not in self.placements:
            raise TopologyError(f"unknown application {app_name!r}")
        node = self.spec.node(new_host)
        if node.kind is not DeviceKind.HOST:
            raise TopologyError(f"{new_host!r} is not a host")
        old_host = self.placements[app_name]
        if new_host == old_host:
            return
        self.placements[app_name] = new_host
        for flow in self._flows.values():
            if app_name not in (flow.src_app, flow.dst_app):
                continue
            if flow.generator is not None:
                flow.generator.stop()
            if self._started:
                self.monitor.unwatch_path(flow.label)
                self._bind_flow(flow)
                self._start_traffic(flow)
        move = MoveEvent(
            time=self.network.now,
            app=app_name,
            from_host=old_host,
            to_host=new_host,
            reason=reason,
        )
        self.moves.append(move)
        logger.warning("reallocation executed: %s", move)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state_of(self, label: str) -> QosState:
        return self._flows[label].detector.state

    def placement_of(self, app_name: str) -> str:
        return self.placements[app_name]

    def format_log(self) -> str:
        lines = [str(e) for e in self.events] + [str(m) for m in self.moves]
        return "\n".join(lines) if lines else "(no events)"
