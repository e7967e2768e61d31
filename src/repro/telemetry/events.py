"""Structured event bus for the monitor's notable moments.

Before this module, "something happened" knowledge was scattered:
health transitions sat in the tracker's list, QoS violations in the
middleware's action log, fault activity in per-fault flags, degraded
reports nowhere at all.  The bus gives them one spine: producers call
:meth:`EventBus.publish`, consumers either subscribe (push) or read the
bounded ring of recent events and the per-kind counters (pull).

Events are plain frozen records -- kind + sim-time + attributes -- so
they serialise cleanly into the JSON snapshot and stay cheap to create
on hot paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence

# Well-known event kinds (producers may publish ad-hoc kinds too).
HEALTH_TRANSITION = "health_transition"
QOS_VIOLATION = "qos_violation"
QOS_RECOVERY = "qos_recovery"
FAULT_INJECTED = "fault_injected"
FAULT_CLEARED = "fault_cleared"
REPORT_STATUS = "report_status_change"
AGENT_RESTART = "agent_restart"
INTEGRITY_VIOLATION = "integrity_violation"
CROSS_CHECK_MISMATCH = "cross_check_mismatch"
QUARANTINE_ENTER = "quarantine"
QUARANTINE_EXIT = "quarantine_release"
COUNTER_WRAP_RISK = "counter_wrap_risk"
WORKER_TRANSITION = "worker_transition"
WORKER_FAILOVER = "worker_failover"
WORKER_REBALANCE = "worker_rebalance"
SAMPLE_GAP = "sample_gap"
PROBE_TRAIN_COMPLETED = "probe_train_completed"
PROBE_DISAGREEMENT = "probe_disagreement"
PROBE_RECOVERED = "probe_recovered"
TOPOLOGY_CHANGED = "topology_changed"
PATH_REROUTED = "path_rerouted"

KNOWN_KINDS = (
    HEALTH_TRANSITION,
    QOS_VIOLATION,
    QOS_RECOVERY,
    FAULT_INJECTED,
    FAULT_CLEARED,
    REPORT_STATUS,
    AGENT_RESTART,
    INTEGRITY_VIOLATION,
    CROSS_CHECK_MISMATCH,
    QUARANTINE_ENTER,
    QUARANTINE_EXIT,
    COUNTER_WRAP_RISK,
    WORKER_TRANSITION,
    WORKER_FAILOVER,
    WORKER_REBALANCE,
    SAMPLE_GAP,
    PROBE_TRAIN_COMPLETED,
    PROBE_DISAGREEMENT,
    PROBE_RECOVERED,
    TOPOLOGY_CHANGED,
    PATH_REROUTED,
)


@dataclass(frozen=True)
class Event:
    """One structured occurrence at one simulated instant."""

    kind: str
    time: float
    attrs: Mapping[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        return f"[{self.time:9.3f}s] {self.kind}" + (f" {attrs}" if attrs else "")


EventCallback = Callable[[Event], None]


#: Events an :class:`EventBus` retains, the oldest dropped first.
CAPACITY = 1024


class EventBus:
    """Publish/subscribe fan-out plus bounded retention and counting."""

    def __init__(self) -> None:
        self.recent: Deque[Event] = deque(maxlen=CAPACITY)
        self.counts: Dict[str, int] = {}
        self._subscribers: List[tuple] = []  # (callback, frozenset-of-kinds | None)

    # ------------------------------------------------------------------
    def publish(self, kind: str, time: float, **attrs: object) -> Event:
        event = Event(kind=kind, time=time, attrs=attrs)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.recent.append(event)
        for callback, kinds in self._subscribers:
            if kinds is None or kind in kinds:
                callback(event)
        return event

    def subscribe(
        self, callback: EventCallback, kinds: Optional[Sequence[str]] = None
    ) -> None:
        """Receive every future event (optionally only the given kinds)."""
        self._subscribers.append(
            (callback, frozenset(kinds) if kinds is not None else None)
        )

    # ------------------------------------------------------------------
    # Pull-side inspection
    # ------------------------------------------------------------------
    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Retained events, oldest first, optionally filtered by kind."""
        if kind is None:
            return list(self.recent)
        return [e for e in self.recent if e.kind == kind]

    def last(self, kind: Optional[str] = None) -> Optional[Event]:
        for event in reversed(self.recent):
            if kind is None or event.kind == kind:
                return event
        return None

    def format_counts(self) -> str:
        """One line per kind; well-known kinds always shown (zeros too)."""
        kinds = sorted(set(KNOWN_KINDS) | set(self.counts))
        return "\n".join(f"{kind:>24}: {self.count(kind)}" for kind in kinds)

    def snapshot(self) -> Dict[str, object]:
        return {
            "counts": dict(sorted(self.counts.items())),
            "recent": [
                {"kind": e.kind, "time": e.time, "attrs": dict(e.attrs)}
                for e in self.recent
            ],
        }
