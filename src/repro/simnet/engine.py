"""Discrete-event simulation engine.

A binary heap of timestamped callbacks with stable FIFO ordering for
simultaneous events, cancellable handles, and a monotonic simulation
clock.  Everything else in :mod:`repro.simnet` (links, hosts, traffic
generators, the SNMP poller) is driven by this loop.

A heap entry is a plain ``(time, seq, handle)`` tuple, ``seq`` being the
order of scheduling.  It is unique, so the heap is ordered entirely by C
tuple comparison -- no Python-level ``__lt__`` on the hot path -- and
simultaneous events fire first-scheduled first.  That tie order is part
of every experiment's result (same seed, same event trace; pinned in
``tests/test_seed_stability.py``): a change here may make an event
cheaper but never reorder, add or drop one.  The Figure-4 staircase fires
about 1 200 events per simulated second and the 300-host campus 213 000
during its announce flood, at two Python calls each beside the callback.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (negative delays, running backwards)."""


class EventHandle:
    """Cancellable reference to a scheduled callback.

    Cancellation is lazy: the heap entry stays in place and is discarded
    when it surfaces, which keeps :meth:`Simulator.schedule` O(log n) and
    :meth:`cancel` O(1).
    """

    __slots__ = ("callback", "args", "kwargs", "time", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={self.time:.6f} {name} {state}>"


class Simulator:
    """Event-heap simulator with a float-seconds clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, fn, arg)      # relative delay
        sim.schedule_at(10.0, fn)       # absolute time
        sim.run(until=100.0)

    The clock starts at 0.0 and only moves forward.  Callbacks scheduled
    for the same instant run in FIFO order of scheduling, which makes the
    whole simulation deterministic.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        # Read directly by this package's per-frame paths (link, switch):
        # the ``now`` property is a Python call.
        self._now = 0.0
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (for benchmarks/diagnostics)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> EventHandle:
        """Schedule ``callback(*args, **kwargs)`` after ``delay`` seconds."""
        if not delay >= 0:  # written so that NaN is refused too
            raise SimulationError(f"negative or NaN delay {delay!r}")
        time = self._now + delay
        handle = EventHandle(time, callback, args, kwargs)
        heappush(self._heap, (time, next(self._seq), handle))
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if not time >= self._now:  # NaN would break the heap's order silently
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock already at t={self._now!r}"
            )
        handle = EventHandle(time, callback, args, kwargs)
        heappush(self._heap, (time, next(self._seq), handle))
        return handle

    def call_every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        jitter: Callable[[], float] | None = None,
        **kwargs: Any,
    ) -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds until cancelled.

        ``jitter``, if given, is called before each firing and its return
        value (seconds, may be negative but the resulting delay is clamped
        to >= 0) is added to that firing time only -- the underlying period
        does not drift.  This is how the SNMP poller models the paper's
        "slight delay in SNMP polling".
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        task = PeriodicTask(self, interval, callback, args, kwargs, jitter)
        first = self._now + interval if start is None else start
        task._arm(max(first, self._now))
        return task

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Process events until the clock reaches ``until`` (inclusive).

        The clock is left exactly at ``until`` even if the heap drains
        early, so back-to-back ``run`` calls behave like one long run.
        """
        if until < self._now:
            raise SimulationError(f"cannot run backwards to t={until!r}")
        self._drain(until)
        self._now = until

    def run_until_idle(self, max_time: float = float("inf")) -> None:
        """Process every pending event, or stop at ``max_time``."""
        self._drain(max_time)
        if self._heap:
            self._now = max_time

    def _drain(self, until: float) -> None:
        """Fire every event due at or before ``until``, in heap order."""
        heap = self._heap
        pop = heappop
        while heap and heap[0][0] <= until:
            time, _seq, handle = pop(heap)
            if handle.cancelled:
                continue
            self._now = time
            handle.fired = True
            self._events_processed += 1
            if handle.kwargs:
                handle.callback(*handle.args, **handle.kwargs)
            else:
                handle.callback(*handle.args)

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _time, _seq, handle in self._heap if not handle.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6f} queued={len(self._heap)}>"


class PeriodicTask:
    """A recurring callback created by :meth:`Simulator.call_every`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        jitter: Callable[[], float] | None,
    ) -> None:
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self._kwargs = kwargs
        self._jitter = jitter
        self._next_nominal = 0.0
        self._handle: EventHandle | None = None
        self._stopped = False
        self.firings = 0

    def _arm(self, nominal_time: float) -> None:
        self._next_nominal = nominal_time
        actual = nominal_time
        if self._jitter is not None:
            actual = max(self._sim.now, nominal_time + self._jitter())
        self._handle = self._sim.schedule_at(actual, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.firings += 1
        # Re-arm first so the callback may cancel the task.
        self._arm(self._next_nominal + self.interval)
        self._callback(*self._args, **self._kwargs)

    def cancel(self) -> None:
        """Stop the task; the pending firing (if any) is cancelled too."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped
