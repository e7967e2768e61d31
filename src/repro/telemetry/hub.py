"""The telemetry hub: one registry + tracer + event bus per monitor.

Every instrumented component (SNMP manager, poller, bandwidth
calculator, middleware, faults) takes a :class:`Telemetry` and talks to
its three members.  The monitor creates one enabled hub and threads it
through; components built standalone (unit tests, ad-hoc scripts) get a
private *disabled* hub, which keeps the counters working -- they are the
component's bookkeeping now -- while skipping the optional costs:
histogram updates and span records no-op.  Events stay on either way;
they fire on rare transitions, not per packet.

``enabled`` is the single overhead switch; the cost guard in
``tests/test_telemetry_integration.py`` flips it to hold instrumentation
under its budget.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.events import EventBus
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer


class Telemetry:
    """Bundle of registry, tracer, and event bus sharing one clock."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        slow_threshold: Optional[float] = None,
    ) -> None:
        self.clock = clock if clock is not None else lambda: 0.0
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.clock, slow_threshold=slow_threshold, enabled=enabled)
        self.events = EventBus()

    @classmethod
    def disabled(cls, clock: Optional[Callable[[], float]] = None) -> "Telemetry":
        """A hub whose counters count but whose extras no-op."""
        return cls(clock=clock, enabled=False)

    def enable(self) -> None:
        self.enabled = True
        self.tracer.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.tracer.enabled = False
