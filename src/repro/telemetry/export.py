"""Exporters: Prometheus text and JSON snapshot.

Two consumers, two formats:

- :func:`prometheus_text` renders the registry in the Prometheus
  exposition format (v0.0.4).  Histograms export as *summaries* --
  ``name{quantile="0.99"}`` plus ``_sum``/``_count`` -- because the
  registry tracks streaming quantiles, not fixed buckets.  Output is
  fully sorted, so it is stable for golden-file tests.
- :func:`json_snapshot` bundles metrics, event counts/ring, and the
  span rings into one dict for programmatic consumers.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence

from repro.telemetry.hub import Telemetry
from repro.telemetry.metrics import Histogram, MetricsRegistry


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return format(value, ".10g")


def _labels_text(names: Sequence[str], values: Sequence[str], extra: str = "") -> str:
    parts = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus exposition format (sorted, stable)."""
    lines: List[str] = []
    for family in registry.families():
        kind = "summary" if family.kind == "histogram" else family.kind
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {kind}")
        for label_values, child in family.children():
            if isinstance(child, Histogram):
                for q, estimate in child.quantiles().items():
                    labels = _labels_text(
                        family.labelnames, label_values, f'quantile="{_fmt(q)}"'
                    )
                    lines.append(f"{family.name}{labels} {_fmt(estimate)}")
                labels = _labels_text(family.labelnames, label_values)
                lines.append(f"{family.name}_sum{labels} {_fmt(child.sum)}")
                lines.append(f"{family.name}_count{labels} {_fmt(child.count)}")
            else:
                labels = _labels_text(family.labelnames, label_values)
                lines.append(f"{family.name}{labels} {_fmt(child.value)}")
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# JSON snapshot
# ----------------------------------------------------------------------
def snapshot_dict(telemetry: Telemetry, time: Optional[float] = None) -> Dict[str, object]:
    """Metrics + events + spans as one JSON-ready dict."""
    return {
        "time": telemetry.clock() if time is None else time,
        "metrics": telemetry.registry.snapshot(),
        "events": telemetry.events.snapshot(),
        "spans": {
            "started": telemetry.tracer.spans_started,
            "finished": telemetry.tracer.spans_finished,
            "recent": [
                {
                    "name": s.name,
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "start": s.start,
                    "end": s.end,
                    "duration": s.duration,
                    "attrs": dict(s.attrs),
                }
                for s in telemetry.tracer.finished
            ],
            "slow": [
                {"name": s.name, "start": s.start, "duration": s.duration,
                 "attrs": dict(s.attrs)}
                for s in telemetry.tracer.slow
            ],
        },
    }


class _NanSafeEncoder(json.JSONEncoder):
    """NaN/Inf are not JSON; encode them as strings, not bare tokens."""

    def iterencode(self, o, _one_shot=False):  # noqa: N802 (stdlib name)
        return super().iterencode(_sanitise(o), _one_shot)


def _sanitise(obj):
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _sanitise(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitise(v) for v in obj]
    return obj


def json_snapshot(
    telemetry: Telemetry, time: Optional[float] = None, indent: Optional[int] = 2
) -> str:
    return json.dumps(
        snapshot_dict(telemetry, time=time), indent=indent, cls=_NanSafeEncoder
    )
