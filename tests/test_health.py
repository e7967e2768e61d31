"""Tests for agent-health tracking and the poll circuit breaker."""

import pytest

from repro.core.health import (
    TRANSITION_LOG_CAP,
    AgentHealthTracker,
    HealthState,
    HealthTransition,
    LeaseTransition,
    WorkerLeaseTracker,
    WorkerState,
)
from repro.core.monitor import NetworkMonitor
from repro.experiments.testbed import build_testbed
from repro.simnet.faults import AgentOutage
from repro.telemetry.events import HEALTH_TRANSITION, WORKER_TRANSITION, EventBus
from tests.costs import python_calls


class TestStateMachine:
    def tracker(self, **kw):
        return AgentHealthTracker(probe_interval=6.0, **kw)

    def test_starts_healthy(self):
        t = self.tracker()
        assert t.state("a") is HealthState.HEALTHY
        assert not t.is_dead("a")

    def test_ladder_down(self):
        t = self.tracker()
        expected = [
            HealthState.DEGRADED,  # 1 failure
            HealthState.DEGRADED,  # 2
            HealthState.SUSPECT,  # 3
            HealthState.SUSPECT,  # 4
            HealthState.DEAD,  # 5
            HealthState.DEAD,  # 6: stays dead
        ]
        for i, state in enumerate(expected):
            t.record_failure("a", float(i))
            assert t.state("a") is state

    def test_recovery_needs_consecutive_successes(self):
        t = self.tracker()
        for i in range(5):
            t.record_failure("a", float(i))
        assert t.is_dead("a")
        t.record_success("a", 10.0)
        assert t.state("a") is HealthState.DEGRADED  # one success is not enough
        t.record_failure("a", 11.0)  # flap: the streak restarts
        t.record_success("a", 12.0)
        assert t.state("a") is HealthState.DEGRADED
        t.record_success("a", 13.0)
        assert t.state("a") is HealthState.HEALTHY

    def test_healthy_agent_unaffected_by_success(self):
        t = self.tracker()
        for i in range(10):
            t.record_success("a", float(i))
        assert t.state("a") is HealthState.HEALTHY
        assert t.transitions == []

    def test_transitions_recorded_and_callbacks_fire(self):
        t = self.tracker()
        seen = []
        t.subscribe(seen.append)
        for i in range(5):
            t.record_failure("a", float(i))
        assert [tr.new for tr in t.transitions] == [
            HealthState.DEGRADED, HealthState.SUSPECT, HealthState.DEAD
        ]
        assert seen == t.transitions
        assert "dead" in str(t.transitions[-1])

    def test_counts_and_states(self):
        t = self.tracker()
        t.record_success("a", 0.0)
        for i in range(5):
            t.record_failure("b", float(i))
        assert t.count(HealthState.HEALTHY) == 1
        assert t.count(HealthState.DEAD) == 1
        assert t.states()["b"] is HealthState.DEAD
        assert t.nodes() == ["a", "b"]

    def test_validation(self):
        with pytest.raises(ValueError):
            AgentHealthTracker(probe_interval=0.0)


class TestCircuitBreaker:
    def test_non_dead_always_polls(self):
        t = AgentHealthTracker()
        for i in range(4):
            t.record_failure("a", float(i))  # SUSPECT, not DEAD
        for now in (4.0, 4.1, 4.2):
            assert t.should_poll("a", now)
        assert t.polls_suppressed == 0

    def test_dead_agent_probed_slowly(self):
        t = AgentHealthTracker(probe_interval=6.0)
        for i in range(5):
            t.record_failure("a", float(i))  # DEAD at t=4
        # Probe clock starts at death: nothing until 4 + 6.
        assert not t.should_poll("a", 6.0)
        assert not t.should_poll("a", 9.9)
        assert t.should_poll("a", 10.0)
        # The granted probe restarts the clock.
        assert not t.should_poll("a", 12.0)
        assert t.should_poll("a", 16.0)
        assert t.polls_suppressed == 3


class TestLeaseMachine:
    def tracker(self, **kw):
        t = WorkerLeaseTracker(lease_timeout=6.0, suspect_after=3.0, recovery_beats=2, **kw)
        t.register("w", 0.0)
        return t

    def dead(self):
        t = self.tracker()
        t.check(7.0)
        assert t.state("w") is WorkerState.DEAD
        return t

    def test_silence_walks_alive_suspect_dead(self):
        t = self.tracker()
        for now, state in [
            (3.0, WorkerState.ALIVE),  # thresholds are strict: not yet
            (3.1, WorkerState.SUSPECT),
            (6.0, WorkerState.SUSPECT),
            (6.1, WorkerState.DEAD),
            (60.0, WorkerState.DEAD),  # stays dead, expires once
        ]:
            t.check(now)
            assert t.state("w") is state, now
        assert [tr.silence for tr in t.transitions] == [3.1, 6.1]
        assert t.lease("w").expiries == 1

    def test_alive_can_expire_without_passing_suspect(self):
        t = self.tracker()
        t.check(10.0)
        assert [tr.new for tr in t.transitions] == [WorkerState.DEAD]

    def test_one_beat_clears_suspicion(self):
        t = self.tracker()
        t.check(4.0)
        t.beat("w", 4.5)
        assert t.state("w") is WorkerState.ALIVE
        t.check(7.0)  # 2.5 s since the beat: the clock restarted
        assert t.state("w") is WorkerState.ALIVE
        assert t.lease("w").recoveries == 0  # never died, nothing to recover

    def test_recovery_needs_consecutive_beats(self):
        t = self.dead()
        t.beat("w", 8.0)
        assert t.state("w") is WorkerState.RECOVERING  # one beat is not enough
        t.beat("w", 9.0)
        assert t.state("w") is WorkerState.ALIVE
        lease = t.lease("w")
        assert (lease.expiries, lease.recoveries, lease.beats) == (1, 1, 2)
        assert "dead -> recovering" in str(t.transitions[-2])

    def test_relapse_resets_the_streak(self):
        t = self.dead()
        t.beat("w", 8.0)
        t.check(14.5)  # silent again past the lease: relapse
        assert t.state("w") is WorkerState.DEAD
        assert t.lease("w").recovery_streak == 0
        t.beat("w", 15.0)
        assert t.state("w") is WorkerState.RECOVERING  # the old beat does not count
        t.beat("w", 15.5)
        assert t.state("w") is WorkerState.ALIVE
        lease = t.lease("w")
        assert (lease.expiries, lease.recoveries) == (2, 1)

    def test_beat_registers_an_unknown_worker_alive(self):
        t = WorkerLeaseTracker()
        t.beat("new", 5.0)
        assert t.states() == {"new": WorkerState.ALIVE}
        with pytest.raises(KeyError):
            t.state("never seen")

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerLeaseTracker(lease_timeout=3.0, suspect_after=3.0)
        with pytest.raises(ValueError):
            WorkerLeaseTracker(suspect_after=0.0)
        with pytest.raises(ValueError):
            WorkerLeaseTracker(recovery_beats=0)


def _agent_ladder(events=None):
    """(tracker, one-transition step, no-op step, expected event)"""
    t = AgentHealthTracker(events=events)
    return (
        t,
        lambda: t.record_failure("x", 1.0),
        lambda: t.record_failure("x", 2.0),  # still DEGRADED
        HealthTransition("x", HealthState.HEALTHY, HealthState.DEGRADED, 1.0, 1),
        (HEALTH_TRANSITION, dict(node="x", old="healthy", new="degraded",
                                 consecutive_failures=1)),
    )


def _lease_ladder(events=None):
    t = WorkerLeaseTracker(lease_timeout=6.0, suspect_after=3.0, events=events)
    t.register("x", 0.0)
    return (
        t,
        lambda: t.check(3.25),
        lambda: t.check(3.5),  # still SUSPECT
        LeaseTransition("x", WorkerState.ALIVE, WorkerState.SUSPECT, 3.25, 3.25),
        (WORKER_TRANSITION, dict(worker="x", old="alive", new="suspect", silence=3.25)),
    )


@pytest.mark.parametrize("ladder", [_agent_ladder, _lease_ladder])
def test_shared_transition_plumbing(ladder):
    bus, seen = EventBus(), []
    tracker, move, noop, transition, (kind, attrs) = ladder(events=bus)
    tracker.subscribe(seen.append)
    assert tracker.clock == 0 and tracker.epoch_of("x") == 0
    move()
    assert tracker.transitions == [transition] == seen
    assert (tracker.clock, tracker.epoch_of("x")) == (1, 1)
    event = bus.last(kind)
    assert event.time == transition.time and event.attrs == attrs
    noop()
    assert len(tracker.transitions) == 1 and tracker.clock == 1 and bus.count(kind) == 1
    states = tracker.states()
    assert states == {"x": transition.new}
    assert tracker.count(transition.new) == 1 and tracker.count(transition.old) == 0


@pytest.mark.parametrize("ladder", [_agent_ladder, _lease_ladder])
def test_transition_log_is_a_bounded_ring(ladder, monkeypatch):
    monkeypatch.setattr("repro.core.health.TRANSITION_LOG_CAP", 4)
    tracker = ladder()[0]
    if isinstance(tracker, AgentHealthTracker):
        def flap(i):  # HEALTHY -> DEGRADED -> (2 successes) -> HEALTHY
            tracker.record_failure("x", i)
            tracker.record_success("x", i)
            tracker.record_success("x", i)
    else:
        def flap(i):  # ALIVE -> SUSPECT -> ALIVE
            tracker.beat("x", 10.0 * i)
            tracker.check(10.0 * i + 4.0)
            tracker.beat("x", 10.0 * i + 5.0)
    for i in range(1, 11):
        flap(float(i))
    assert tracker.clock == 20  # every transition still counted ...
    assert len(tracker.transitions) == 4  # ... the log keeps the newest
    assert tracker.transitions[-1].time >= 10.0
    assert TRANSITION_LOG_CAP >= 1024  # no printout or test here truncates


class TestSteadyStateCost:
    """The shared base stays off the per-sample path: the parent's call
    counts (lambda included), measured with ``tests/costs.py``."""

    def test_agent_tracker(self):
        t = AgentHealthTracker()
        t.record_success("a", 0.0)
        assert python_calls(lambda: t.record_success("a", 1.0)) <= 4
        assert python_calls(lambda: t.should_poll("a", 1.0)) <= 3

    def test_lease_tracker(self):
        t = WorkerLeaseTracker()
        for w in ("a", "b", "c"):
            t.register(w, 0.0)
        assert python_calls(lambda: t.beat("a", 1.0)) <= 3
        assert python_calls(lambda: t.check(1.5)) <= 2


class TestMonitorIntegration:
    def test_outage_walks_the_ladder_and_recovers(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
        monitor.watch_path("S1", "N1")
        AgentOutage(build.network.sim, build.agents["S1"], at=6.0, until=30.0)
        monitor.start()
        build.network.run(50.0)

        states = [tr.new for tr in monitor.health.transitions if tr.node == "S1"]
        assert states[:3] == [
            HealthState.DEGRADED, HealthState.SUSPECT, HealthState.DEAD
        ]
        assert states[-1] is HealthState.HEALTHY
        # The circuit breaker suppressed at least one routine poll.
        assert monitor.poller.polls_suppressed > 0
        # And suppressed polls saved SNMP requests: during the open-circuit
        # window S1 was probed less often than every cycle.
        assert monitor.health.states()["S1"] is HealthState.HEALTHY
        assert monitor.agent_health()["S1"] == "healthy"

    def test_stats_expose_health_and_error_split(self):
        build = build_testbed()
        monitor = NetworkMonitor(build, "L", poll_jitter=0.0)
        AgentOutage(build.network.sim, build.agents["S1"], at=0.0, until=60.0)
        monitor.start()
        build.network.run(30.0)
        stats = monitor.stats()
        assert stats["poll_timeout_errors"] > 0
        assert stats["poll_errors"] >= stats["poll_timeout_errors"]
        assert stats["poll_error_responses"] == 0
        assert stats["agents_dead"] == 1
        assert stats["agents_healthy"] == len(monitor.poller.targets) - 1
        assert stats["polls_suppressed"] > 0
