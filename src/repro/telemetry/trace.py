"""Span-based tracing of the monitor's own activity, on simulated time.

A span is one timed unit of monitor work: a poll cycle, one agent's SNMP
exchange inside it, a path computation inside a report.  Because the
simulator advances time only between events, synchronous code takes zero
simulated time -- spans therefore support *explicit* begin/finish across
event-loop turns (a poll cycle's span stays open until its last response
lands), not just context-manager scoping.

Finished spans land in a bounded ring buffer (a long-running monitor
must not accumulate trace state without bound); spans slower than
``slow_threshold`` are additionally kept in a dedicated slow-span ring
and logged, which is the "why was cycle 1041 slow?" forensic trail.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

logger = logging.getLogger("repro.telemetry")

CAPACITY = 512  # finished spans kept
SLOW_CAPACITY = 64  # slow spans kept for the forensic trail


class Span:
    """One timed operation; ``finish`` may happen many events later."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start", "end", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attrs: Dict[str, object],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def finish(self, **attrs: object) -> "Span":
        """Close the span at the tracer's current clock time."""
        if attrs:
            self.attrs.update(attrs)
        self.tracer._finish(self)
        return self

    # Context-manager sugar for synchronous sections.
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.end is not None else "open"
        return f"<Span {self.name} #{self.span_id} {state} {self.attrs}>"


class _NullSpan:
    """Shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()
    name = "<disabled>"
    span_id = -1
    parent_id = None
    start = 0.0
    end = 0.0
    attrs: Dict[str, object] = {}
    open = False
    duration = 0.0

    def finish(self, **attrs: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans against a clock and retains the finished ones.

    ``clock`` is any zero-argument callable returning seconds -- the
    monitor passes the simulator's clock, so all spans live on simulated
    time and stay deterministic under a seed.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        slow_threshold: Optional[float] = None,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.slow_threshold = slow_threshold
        self.finished: Deque[Span] = deque(maxlen=CAPACITY)
        self.slow: Deque[Span] = deque(maxlen=SLOW_CAPACITY)
        self.spans_started = 0
        self.spans_finished = 0
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    def begin(self, name: str, parent: Optional[Span] = None, **attrs: object):
        """Open a span; returns a shared no-op span when disabled."""
        if not self.enabled:
            return NULL_SPAN
        self.spans_started += 1
        parent_id = None
        if parent is not None and parent is not NULL_SPAN:
            parent_id = parent.span_id
        return Span(self, name, next(self._ids), parent_id, self.clock(), attrs)

    def span(self, name: str, parent: Optional[Span] = None, **attrs: object):
        """Alias of :meth:`begin`, reads better with ``with`` blocks."""
        return self.begin(name, parent=parent, **attrs)

    def _finish(self, span: Span) -> None:
        if span.end is not None:
            return  # idempotent: a forced cycle close may race a late response
        span.end = self.clock()
        self.spans_finished += 1
        self.finished.append(span)
        if self.slow_threshold is not None and span.duration > self.slow_threshold:
            self.slow.append(span)
            logger.info(
                "slow span %s #%d: %.3fs (threshold %.3fs) %s",
                span.name, span.span_id, span.duration, self.slow_threshold,
                span.attrs,
            )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans, optionally filtered by name (oldest first)."""
        if name is None:
            return list(self.finished)
        return [s for s in self.finished if s.name == name]

    def format_slow(self) -> str:
        """Human-readable slow-span log (newest last)."""
        if not self.slow:
            return "(no slow spans)"
        lines = []
        for span in self.slow:
            attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            lines.append(
                f"[{span.start:9.3f}s] {span.name} took {span.duration:.3f}s"
                + (f" ({attrs})" if attrs else "")
            )
        return "\n".join(lines)
