"""Self-monitoring observability for the monitor itself.

The paper's monitor watches the network; this package watches the
monitor: how long polls take, how fresh reports are, what faults and
violations fired, and what that all costs.  See the "Observability"
section of ``docs/architecture.md``.

Layout:

- :mod:`repro.telemetry.quantile` -- O(1)-memory streaming quantile
  estimators (P-square; exponentially-weighted variant).
- :mod:`repro.telemetry.metrics`  -- Counter / Gauge / Histogram and the
  :class:`MetricsRegistry` namespace, with label support.
- :mod:`repro.telemetry.trace`    -- sim-time spans, ring-buffered, with
  a slow-span log.
- :mod:`repro.telemetry.events`   -- the structured event bus (health
  transitions, QoS violations, faults, report-status changes).
- :mod:`repro.telemetry.hub`      -- :class:`Telemetry`, the bundle the
  monitor threads through every instrumented component.
- :mod:`repro.telemetry.export`   -- Prometheus text and JSON snapshot
  output.
"""

from repro.telemetry.events import Event, EventBus
from repro.telemetry.export import (
    json_snapshot,
    prometheus_text,
    snapshot_dict,
)
from repro.telemetry.hub import Telemetry
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.telemetry.quantile import EwmaQuantiles, P2Quantile
from repro.telemetry.trace import Span, Tracer

__all__ = [
    "Counter",
    "Event",
    "EventBus",
    "EwmaQuantiles",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "P2Quantile",
    "Span",
    "Telemetry",
    "Tracer",
    "json_snapshot",
    "prometheus_text",
    "snapshot_dict",
]
