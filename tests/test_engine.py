"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simnet.engine import SimulationError, Simulator
from tests.costs import call_counts


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run(10.0)
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run(2.0)
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run(5.0)
        assert seen == [2.5]

    def test_run_leaves_clock_at_until(self):
        sim = Simulator()
        sim.run(7.0)
        assert sim.now == 7.0

    def test_event_beyond_until_not_fired(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, 1)
        sim.run(4.999)
        assert fired == []
        sim.run(5.0)
        assert fired == [1]

    def test_schedule_during_run(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run(3.0)
        assert seen == [2.0]

    def test_kwargs_passed(self):
        """Keywords go through ``call_every`` alone: a one-shot event is
        ``(time, seq, callback, args)`` and nothing else."""
        sim = Simulator()
        got = []
        sim.call_every(1.0, lambda *a, **kw: got.append((a, kw)), 7, x=1, y="z")
        sim.run(2.0)
        assert got == [((7,), {"x": 1, "y": "z"})] * 2
        with pytest.raises(TypeError):
            sim.schedule(1.0, lambda **kw: None, x=1)
        with pytest.raises(TypeError):
            sim.schedule_at(3.0, lambda **kw: None, x=1)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.run(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_nan_time_rejected_and_heap_untouched(self):
        """``nan < 0`` and ``nan < now`` are both false: a NaN time used to
        be pushed, and a heap holding one is no longer ordered -- this very
        sequence fired a, b, c (c *after* b), never fired d, and returned
        with two events pending."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), fired.append, "x")
        sim.schedule(2.0, fired.append, "b")
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), fired.append, "y")
        sim.schedule(0.5, fired.append, "c")
        sim.schedule(3.0, fired.append, "d")
        assert sim.pending_count() == 4  # the refused ones left nothing behind
        sim.run(10.0)
        assert fired == ["c", "a", "b", "d"]
        assert sim.pending_count() == 0

    def test_infinite_time_is_accepted_and_never_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(float("inf"), fired.append, "never")
        sim.schedule_at(float("inf"), fired.append, "never")
        sim.schedule(1.0, fired.append, "a")
        sim.run(1e12)
        assert fired == ["a"] and sim.pending_count() == 2

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run(5.0)
        with pytest.raises(SimulationError):
            sim.run(4.0)
        with pytest.raises(SimulationError):
            sim.run_until_idle(4.0)
        assert sim.now == 5.0

    @pytest.mark.parametrize("run", ["run", "run_until_idle"])
    def test_run_to_nan_rejected_and_clock_untouched(self, run):
        """``nan < now`` is false: ``run(nan)`` used to drain nothing and
        leave NaN on the clock -- the next ``schedule`` pushed a NaN
        timestamp and every ``schedule_at`` raised from then on."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            getattr(sim, run)(float("nan"))
        assert sim.now == 0.0
        sim.schedule(0.5, fired.append, "b")
        sim.schedule_at(2.0, fired.append, "c")
        sim.run(3.0)
        assert fired == ["b", "a", "c"] and sim.now == 3.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run(2.0)
        assert sim.events_processed == 4


class TestCancellation:
    def test_cancelled_event_not_fired(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        sim.cancel(handle)
        sim.run(2.0)
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.pending_count() == 0
        sim.run(2.0)
        assert fired == [] and not sim._cancelled

    def test_pending_property_lifecycle(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert sim.pending(handle)
        sim.run(2.0)
        assert not sim.pending(handle)

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(1.0, lambda: None)
        sim.cancel(drop)
        assert sim.pending_count() == 1
        assert sim.pending(keep) and not sim.pending(drop)

    def test_cancel_after_fire_is_a_no_op_and_leaves_nothing_behind(self):
        """The cancelled set holds only entries still on the heap: one
        that fired (or surfaced cancelled) can be cancelled again without
        its ``seq`` waiting there for ever."""
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, fired.append, 1)
        dropped = sim.schedule(1.0, fired.append, 2)
        sim.cancel(dropped)
        sim.run(2.0)
        sim.cancel(first)
        sim.cancel(dropped)
        assert fired == [1] and not sim._cancelled and sim.pending_count() == 0

    def test_cancel_from_inside_the_events_own_callback(self):
        sim = Simulator()
        fired = []
        handles = []

        def cancel_self(tag):
            sim.cancel(handles[0])
            assert not sim.pending(handles[0])
            fired.append(tag)

        handles.append(sim.schedule(1.0, cancel_self, "self"))
        sim.schedule(1.0, fired.append, "next")  # same instant, one seq later
        sim.run_until_idle()
        assert fired == ["self", "next"]
        assert sim.pending_count() == 0 and not sim._cancelled


class TestRunUntilIdle:
    def test_drains_all_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(100.0, seen.append, 1)
        sim.run_until_idle()
        assert seen == [1]
        assert sim.now == 100.0

    def test_respects_max_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(50.0, seen.append, 2)
        sim.run_until_idle(max_time=10.0)
        assert seen == [1]
        assert sim.now == 10.0


class TestPeriodicTask:
    def test_fires_every_interval(self):
        sim = Simulator()
        times = []
        sim.call_every(2.0, lambda: times.append(sim.now))
        sim.run(10.0)
        assert times == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_explicit_start(self):
        sim = Simulator()
        times = []
        sim.call_every(2.0, lambda: times.append(sim.now), start=1.0)
        sim.run(6.0)
        assert times == [1.0, 3.0, 5.0]

    def test_cancel_stops_firing(self):
        sim = Simulator()
        times = []
        task = sim.call_every(1.0, lambda: times.append(sim.now))
        sim.run(3.0)
        task.cancel()
        sim.run(6.0)
        assert times == [1.0, 2.0, 3.0]
        assert task.stopped

    def test_jitter_shifts_single_firing_without_drift(self):
        sim = Simulator()
        times = []
        jitters = iter([0.5, 0.0, 0.0, 0.0, 0.0])  # one per (re)arm
        sim.call_every(2.0, lambda: times.append(sim.now), jitter=lambda: next(jitters))
        sim.run(6.5)
        # Nominal grid stays 2,4,6 even though the first firing slid.
        assert times == [2.5, 4.0, 6.0]

    def test_callback_may_cancel_own_task(self):
        sim = Simulator()
        count = []

        def cb():
            count.append(sim.now)
            if len(count) == 2:
                task.cancel()

        task = sim.call_every(1.0, cb)
        sim.run(10.0)
        assert count == [1.0, 2.0]

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_every(0.0, lambda: None)

    def test_firings_counted(self):
        sim = Simulator()
        task = sim.call_every(1.0, lambda: None)
        sim.run(4.0)
        assert task.firings == 4


# ----------------------------------------------------------------------
# The heap against a naive sorted-list reference
# ----------------------------------------------------------------------
class ReferenceHandle:
    def __init__(self, callback, args):
        self.callback, self.args = callback, args
        self.cancelled = self.fired = False


class ReferenceTask:
    def __init__(self, sim):
        self.sim = sim
        self.firings = 0
        self.stopped = False
        self.handle = None

    def cancel(self):
        self.stopped = True
        self.sim.cancel(self.handle)


class ReferenceSimulator:
    """The engine's contract written the slow, obvious way: one list,
    re-sorted by (time, order of scheduling) after every insert."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.queue = []
        self.scheduled = 0

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        handle = ReferenceHandle(callback, args)
        self.scheduled += 1
        self.queue.append((time, self.scheduled, handle))
        self.queue.sort(key=lambda entry: entry[:2])
        return handle

    def call_every(self, interval, callback, *args, start=None):
        task = ReferenceTask(self)

        def fire(nominal):
            if task.stopped:
                return
            task.firings += 1
            task.handle = self.schedule_at(nominal + interval, fire, nominal + interval)
            callback(*args)

        first = max(self.now + interval if start is None else start, self.now)
        task.handle = self.schedule_at(first, fire, first)
        return task

    def cancel(self, handle):
        handle.cancelled = True

    def pending(self, handle):
        return not (handle.cancelled or handle.fired)

    def fire_through(self, limit):
        while self.queue and self.queue[0][0] <= limit:
            time, _order, handle = self.queue.pop(0)
            if handle.cancelled:
                continue
            self.now = time
            handle.fired = True
            self.events_processed += 1
            handle.callback(*handle.args)

    def run(self, until):
        self.fire_through(until)
        self.now = until

    def run_until_idle(self, max_time):
        self.fire_through(max_time)
        if self.queue:
            self.now = max_time

    def pending_count(self):
        return sum(not handle.cancelled for _t, _o, handle in self.queue)


# Few distinct values, so simultaneous events (FIFO ties) are the norm.
DELAYS = st.sampled_from([0.0, 0.0, 1e-9, 0.5, 1.0, 1.0, 2.5])
# What a callback does when it fires: schedule a child after a delay and
# cancel the handle with that index, if it exists yet.
CHILDREN = st.lists(st.tuples(DELAYS, st.integers(0, 30)), max_size=3)
PROGRAM = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["schedule", "schedule_at"]), DELAYS, CHILDREN),
        st.tuples(st.just("cancel"), st.integers(0, 30), st.none()),
        st.tuples(
            st.just("call_every"),
            st.sampled_from([0.5, 1.0, 3.0]),
            st.one_of(st.none(), DELAYS),
        ),
        st.tuples(st.just("cancel_task"), st.integers(0, 5), st.none()),
        st.tuples(st.sampled_from(["run", "run_until_idle"]), DELAYS, st.none()),
    ),
    max_size=40,
)


def execute(sim, program):
    """Run ``program`` on ``sim``; return what fired when, and the end state."""
    fired, handles, tasks = [], [], []

    def fire(tag, children):
        fired.append((sim.now, tag))
        for n, (delay, victim) in enumerate(children):
            handles.append(sim.schedule(delay, fire, f"{tag}.{n}", ()))
            if victim < len(handles):
                sim.cancel(handles[victim])

    for i, (op, a, b) in enumerate(program):
        if op == "schedule":
            handles.append(sim.schedule(a, fire, str(i), b))
        elif op == "schedule_at":
            handles.append(sim.schedule_at(sim.now + a, fire, str(i), b))
        elif op == "cancel" and handles:
            sim.cancel(handles[a % len(handles)])
        elif op == "call_every":
            start = None if b is None else sim.now + b
            tasks.append(sim.call_every(a, fire, f"every{i}", (), start=start))
        elif op == "cancel_task" and tasks:
            tasks[a % len(tasks)].cancel()
        elif op == "run":
            sim.run(sim.now + a)
        elif op == "run_until_idle":
            sim.run_until_idle(max_time=sim.now + a)
    state = (
        sim.now,
        sim.events_processed,
        sim.pending_count(),
        [sim.pending(h) for h in handles],
        [(t.firings, t.stopped) for t in tasks],
    )
    return fired, state


class TestAgainstSortedListReference:
    @given(PROGRAM)
    @example(  # a callback cancels a sibling queued for the same instant
        [("schedule", 1.0, [(0.0, 1)]), ("schedule", 1.0, []), ("run", 2.5, None)]
    )
    @example(  # a cancelled entry is discarded ahead of a clock that stays behind it
        [
            ("schedule", 0.0, [(1e-9, 0)]),
            ("run", 0.0, None),
            ("cancel", 1, None),
            ("run_until_idle", 1e-9, None),
            ("schedule", 0.0, []),
            ("cancel", 1, None),
        ]
    )
    @settings(max_examples=200, deadline=None)
    def test_same_callbacks_same_times_same_tie_order(self, program):
        program = program + [("run", 2.5, None)]
        assert execute(Simulator(), program) == execute(ReferenceSimulator(), program)


# ----------------------------------------------------------------------
# Cost guard (no wall clock)
# ----------------------------------------------------------------------
class TestDispatchCost:
    def test_ordering_is_never_done_in_python(self):
        """Heap ordering is C tuple comparison: scheduling and firing
        10 000 events, most of them tied with others, makes no Python-level
        comparison call and one Python call per event: ``schedule``, whose
        heap entry is the event and the handle, with nothing fired beside
        the callback.  The dataclass entries this replaced made 144 403
        ``__lt__`` calls here and 184 405 calls in all; a handle object
        per event, 20 000."""
        sim = Simulator()

        def schedule_and_run():
            for i in range(10_000):
                sim.schedule((i * 7919 % 500) * 1e-3, int)  # int(): fires in C
            sim.run_until_idle()

        calls = call_counts(schedule_and_run)
        assert sim.events_processed == 10_000
        comparisons = {"__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__"}
        assert not comparisons & set(calls), calls
        assert sum(calls.values()) <= 10_000 + 5, calls
        assert not sim._cancelled and sim.pending_count() == 0
