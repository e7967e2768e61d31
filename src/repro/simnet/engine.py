"""Discrete-event simulation engine.

A binary heap of timestamped callbacks with stable FIFO ordering for
simultaneous events, cancellable handles, and a monotonic simulation
clock.  Everything else in :mod:`repro.simnet` (links, hosts, traffic
generators, the SNMP poller) is driven by this loop.

An event is its heap entry, the plain tuple ``(time, seq, callback,
args)``, ``seq`` being the order of scheduling -- and the entry is the
handle :meth:`Simulator.schedule` returns, for :meth:`Simulator.cancel`
and :meth:`Simulator.pending`.  ``seq`` is unique, so the heap is ordered
entirely by C tuple comparison -- no Python-level ``__lt__`` on the hot
path -- and simultaneous events fire first-scheduled first.  That tie
order is part of every experiment's result (same seed, same event trace;
pinned in ``tests/test_seed_stability.py``): a change here may make an
event cheaper but never reorder, add or drop one.  The Figure-4 staircase
fires about 1 200 events per simulated second and the 300-host campus
16 600 during its announce flood, at one Python call each beside the
callback (``schedule``; firing makes none) and no object but the entry.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Set, Tuple

#: A scheduled event and the handle to it: ``(time, seq, callback, args)``.
Event = Tuple[float, int, Callable[..., Any], tuple]


_NOTHING_POPPED: Event = (-1.0, -1, int, ())


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (negative delays, running backwards)."""


class Simulator:
    """Event-heap simulator with a float-seconds clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, fn, arg)          # relative delay
        timer = sim.schedule_at(10.0, fn)   # absolute time
        sim.cancel(timer)
        sim.run(until=100.0)

    The clock starts at 0.0 and only moves forward.  Callbacks scheduled
    for the same instant run in FIFO order of scheduling, which makes the
    whole simulation deterministic.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        # Read directly by this package's per-frame paths (link, switch):
        # the ``now`` property is a Python call.
        self._now = 0.0
        self._events_processed = 0
        # Cancellation is lazy: the ``seq`` of a cancelled entry waits here
        # until the entry surfaces and is discarded, so the set is never
        # larger than the heap and scheduling stays O(log n).
        self._cancelled: Set[int] = set()
        # The entry popped last, fired or discarded: entries leave the
        # heap in (time, seq) order, so every one up to it is gone -- and
        # so is every ``seq`` below the floor ``run_until_idle`` raises.
        self._last: Event = _NOTHING_POPPED
        self._floor = 0

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
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if not delay >= 0:  # written so that NaN is refused too
            raise SimulationError(f"negative or NaN delay {delay!r}")
        event = (self._now + delay, next(self._seq), callback, args)
        heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not time >= self._now:  # NaN would break the heap's order silently
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock already at t={self._now!r}"
            )
        event = (time, next(self._seq), callback, args)
        heappush(self._heap, event)
        return event

    def pending(self, event: Event) -> bool:
        """True while ``event`` is still waiting to fire."""
        last = self._last
        seq = event[1]
        return (
            seq >= self._floor
            and (event[0], seq) > (last[0], last[1])
            and seq not in self._cancelled
        )

    def cancel(self, event: Event) -> None:
        """Prevent ``event`` from firing.  Idempotent, and a no-op on one
        that has fired already (its own callback may cancel it)."""
        if self.pending(event):
            self._cancelled.add(event[1])

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
        if not until >= self._now:  # NaN would be left on the clock
            raise SimulationError(f"cannot run backwards (or to NaN) to t={until!r}")
        self._drain(until)
        self._now = until

    def run_until_idle(self, max_time: float = float("inf")) -> None:
        """Process every pending event, or stop at ``max_time``."""
        if not max_time >= self._now:
            raise SimulationError(f"cannot run backwards (or to NaN) to t={max_time!r}")
        self._drain(max_time)
        if self._heap:
            self._now = max_time
        else:
            # The clock stays where the last event fired, and cancelled
            # entries discarded after it may lie ahead of it: what is
            # scheduled next may sort before them.  Everything so far is
            # gone; say so by ``seq`` and start the order of pops afresh.
            self._floor = next(self._seq)
            self._last = _NOTHING_POPPED

    def _drain(self, until: float) -> None:
        """Fire every event due at or before ``until``, in heap order."""
        heap = self._heap
        pop = heappop
        cancelled = self._cancelled
        while heap and heap[0][0] <= until:
            event = pop(heap)
            self._last = event
            time, seq, callback, args = event
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self._now = time
            self._events_processed += 1
            callback(*args)

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap) - len(self._cancelled)

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
        self._handle: Event | None = None
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
            self._sim.cancel(self._handle)

    @property
    def stopped(self) -> bool:
        return self._stopped
