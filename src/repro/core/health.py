"""Per-agent health tracking and circuit breaking.

The paper's monitor only ever met agents that answered.  A production
monitor meets agents that crash, hang, reboot and flap -- and must keep
producing useful answers while they do.  This module tracks each SNMP
agent's *reachability* through a small state machine driven by poll
outcomes:

    HEALTHY --fail--> DEGRADED --fail*--> SUSPECT --fail*--> DEAD
       ^                  |                                   |
       +---success*-------+ <----------success----------------+

- Any failure (a request that exhausted its retransmissions) moves the
  agent down the ladder; ``suspect_after`` / ``dead_after`` consecutive
  failures reach SUSPECT / DEAD.
- Any success while SUSPECT or DEAD returns the agent to DEGRADED; it
  must then string together ``recovery_successes`` consecutive successes
  to be HEALTHY again (hysteresis, so one lucky response during a flap
  does not clear the alarm).
- DEAD agents are **circuit-broken**: :meth:`AgentHealthTracker.should_poll`
  suppresses routine polls and admits only a slow re-probe every
  ``probe_interval`` seconds, so the manager stops burning timeout slots
  (and simulated bandwidth) hammering a corpse, yet still notices the
  moment it comes back.

Health is about *reachability*, not data quality: an agent that answers
with an SNMP error-status is alive (it counts as a success here) even
though the poller could not use the response.  Data quality -- staleness
of the rate samples -- is judged separately by the bandwidth calculator
(see :mod:`repro.core.bandwidth`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

import logging

from repro.core.dataflow import EpochClock
from repro.telemetry.events import HEALTH_TRANSITION, WORKER_TRANSITION, EventBus

logger = logging.getLogger("repro.monitor")

#: Transitions a tracker keeps, oldest dropped first: a flapping agent adds
#: two per flap forever, and nothing reads further back than one run's printout.
TRANSITION_LOG_CAP = 4096


class _LadderTracker:
    """What the two liveness ladders below share: per-name records, and
    what happens when one changes state.

    A subclass judges its own signals (poll outcomes by consecutive count,
    heartbeats by silence) and hands every verdict to :meth:`_move`, which
    returns at once when the state did not change -- the per-sample path
    gets no further.  A real transition bumps the name's epoch (so tracker
    state is a legal dataflow input), is logged when it enters or leaves
    ``_dead``, appended to the bounded :attr:`transitions` log, published
    on the optional event bus as an ``_event`` and pushed to subscribers.
    ``_transition`` is the frozen record type, fields ``(whom, old, new,
    time, why)``; its first and last field names are ``_subject`` and
    ``_evidence``, which also name the record slot and the event attributes.
    """

    def __init__(self, events: Optional[EventBus]) -> None:
        self.events = events
        self._records: dict = {}
        self._epochs = EpochClock()
        self.transitions: list = []
        self._callbacks: List[Callable] = []

    def states(self) -> dict:
        return {name: record.state for name, record in self._records.items()}

    def count(self, state: Enum) -> int:
        return sum(1 for r in self._records.values() if r.state is state)

    @property
    def clock(self) -> int:
        """Global clock of this tracker: increases on every transition."""
        return self._epochs.clock

    def epoch_of(self, name: str) -> int:
        """Transition epoch of one name (0: never transitioned)."""
        return self._epochs.epoch(name)

    def subscribe(self, callback: Callable) -> None:
        self._callbacks.append(callback)

    def _move(self, record, new_state: Enum, now: float, evidence) -> None:
        old = record.state
        if new_state is old:
            return
        record.state = new_state
        name = getattr(record, self._subject)
        self._epochs.bump(name)
        transition = self._transition(name, old, new_state, now, evidence)
        if self._dead in (old, new_state):
            logger.warning("%s", transition)
        self.transitions.append(transition)
        if len(self.transitions) > TRANSITION_LOG_CAP:
            del self.transitions[0]
        if self.events is not None:
            attrs = {self._subject: name, "old": old.value, "new": new_state.value}
            attrs[self._evidence] = round(evidence, 3)  # silence: to the ms
            self.events.publish(self._event, now, **attrs)
        for callback in self._callbacks:
            callback(transition)


class HealthState(Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"  # at least one recent failure
    SUSPECT = "suspect"  # several consecutive failures
    DEAD = "dead"  # circuit open; only slow re-probes go out


@dataclass(frozen=True)
class HealthTransition:
    """One state change of one agent, for logs and tests."""

    node: str
    old: HealthState
    new: HealthState
    time: float
    consecutive_failures: int

    def __str__(self) -> str:
        return (
            f"[{self.time:.1f}s] {self.node}: {self.old.value} -> {self.new.value}"
            f" ({self.consecutive_failures} consecutive failure(s))"
        )


@dataclass(slots=True, eq=False)
class AgentHealth:
    """Mutable health record of one agent."""

    node: str
    state: HealthState = HealthState.HEALTHY
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    total_failures: int = 0
    total_successes: int = 0
    last_success_time: Optional[float] = None
    last_failure_time: Optional[float] = None
    last_probe_time: Optional[float] = None
    # Data-*quality* strikes recorded by the integrity pipeline.  These
    # never move the reachability state machine -- a lying agent answers
    # promptly -- but they feed cross-check suspicion attribution and the
    # status surfaces.
    data_violations: int = 0
    last_data_violation_time: Optional[float] = None


class AgentHealthTracker(_LadderTracker):
    """Drives :class:`AgentHealth` records from poll outcomes.

    Thresholds:

    suspect_after / dead_after:
        Consecutive failures that reach SUSPECT / DEAD.
    recovery_successes:
        Consecutive successes a DEGRADED agent needs to be HEALTHY again.
    probe_interval:
        Seconds between re-probes of a DEAD agent (the circuit breaker's
        half-open probe cadence).
    """

    _subject, _evidence = "node", "consecutive_failures"
    _transition, _event, _dead = HealthTransition, HEALTH_TRANSITION, HealthState.DEAD
    suspect_after = 3
    dead_after = 5
    recovery_successes = 2

    def __init__(
        self, probe_interval: float = 6.0, events: Optional[EventBus] = None
    ) -> None:
        """``events``: optional :class:`~repro.telemetry.events.EventBus`;
        every state change is published on it as a ``health_transition``
        event in addition to the transition list and callbacks."""
        super().__init__(events)
        if probe_interval <= 0:
            raise ValueError(f"non-positive probe interval {probe_interval!r}")
        self.probe_interval = probe_interval
        self.polls_suppressed = 0

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def agent(self, node: str) -> AgentHealth:
        """The (auto-created) health record for ``node``."""
        record = self._records.get(node)
        if record is None:
            record = self._records[node] = AgentHealth(node)
        return record

    def state(self, node: str) -> HealthState:
        """Current state; unknown agents are optimistically HEALTHY."""
        record = self._records.get(node)
        return record.state if record is not None else HealthState.HEALTHY

    def is_dead(self, node: str) -> bool:
        return self.state(node) is HealthState.DEAD

    def nodes(self) -> List[str]:
        return sorted(self._records)

    # ------------------------------------------------------------------
    # Circuit breaker
    # ------------------------------------------------------------------
    def should_poll(self, node: str, now: float) -> bool:
        """Gate one routine poll of ``node`` at time ``now``.

        Non-DEAD agents always poll.  A DEAD agent is granted one probe
        per ``probe_interval``; everything else is suppressed (and
        counted in :attr:`polls_suppressed`).
        """
        record = self.agent(node)
        if record.state is not HealthState.DEAD:
            return True
        if (
            record.last_probe_time is None
            or now - record.last_probe_time >= self.probe_interval
        ):
            record.last_probe_time = now
            return True
        self.polls_suppressed += 1
        return False

    # ------------------------------------------------------------------
    # Outcome intake
    # ------------------------------------------------------------------
    def record_success(self, node: str, now: float) -> None:
        """A request to ``node`` produced *any* response (agent is alive)."""
        record = self.agent(node)
        record.total_successes += 1
        record.last_success_time = now
        record.consecutive_failures = 0
        record.consecutive_successes += 1
        new_state = record.state
        if record.state in (HealthState.DEAD, HealthState.SUSPECT):
            new_state = HealthState.DEGRADED
            record.consecutive_successes = 1
        if (
            new_state is HealthState.DEGRADED
            and record.consecutive_successes >= self.recovery_successes
        ):
            new_state = HealthState.HEALTHY
        self._move(record, new_state, now, record.consecutive_failures)

    def record_data_violation(self, node: str, now: float) -> None:
        """The integrity pipeline rejected data from ``node``.

        Deliberately does *not* touch the reachability state machine
        (the agent is alive -- it answered); it only annotates the
        record so cross-check attribution and operators can see which
        agents have a history of serving bad numbers.
        """
        record = self.agent(node)
        record.data_violations += 1
        record.last_data_violation_time = now

    def record_failure(self, node: str, now: float) -> None:
        """A request to ``node`` timed out after all retransmissions."""
        record = self.agent(node)
        record.total_failures += 1
        record.last_failure_time = now
        record.consecutive_successes = 0
        record.consecutive_failures += 1
        if record.consecutive_failures >= self.dead_after:
            new_state = HealthState.DEAD
            if record.state is not HealthState.DEAD:
                # Start the probe clock at death so the first re-probe waits
                # a full interval instead of firing on the very next cycle.
                record.last_probe_time = now
        elif record.consecutive_failures >= self.suspect_after:
            new_state = HealthState.SUSPECT
        else:
            new_state = HealthState.DEGRADED
        self._move(record, new_state, now, record.consecutive_failures)


# ----------------------------------------------------------------------
# Worker leases (distributed monitoring plane)
# ----------------------------------------------------------------------
class WorkerState(Enum):
    """Liveness of one monitoring *worker*, judged from its heartbeats.

    Same ladder-with-hysteresis shape as :class:`HealthState`, but the
    signal is lease renewal (any datagram from the worker), not poll
    outcomes, and death has a side effect the agent machine never has:
    the coordinator fails the worker's poll targets over to survivors.
    """

    ALIVE = "alive"
    SUSPECT = "suspect"  # lease past the suspect threshold, not yet expired
    DEAD = "dead"  # lease expired; targets eligible for failover
    RECOVERING = "recovering"  # heard again after death; hysteresis pending


@dataclass(frozen=True)
class LeaseTransition:
    """One worker lease state change, for logs, tests and failover hooks."""

    worker: str
    old: WorkerState
    new: WorkerState
    time: float
    silence: float  # seconds since the last renewal when this fired

    def __str__(self) -> str:
        return (
            f"[{self.time:.1f}s] worker {self.worker}: "
            f"{self.old.value} -> {self.new.value} ({self.silence:.1f}s silent)"
        )


@dataclass(slots=True, eq=False)
class WorkerLease:
    """Mutable lease record of one worker."""

    worker: str
    last_beat: float
    state: WorkerState = WorkerState.ALIVE
    beats: int = 0
    recovery_streak: int = 0
    expiries: int = 0
    recoveries: int = 0


class WorkerLeaseTracker(_LadderTracker):
    """Per-worker lease state machine driven by heartbeats and a clock.

    ``beat`` renews a lease (heartbeats and sample batches both count --
    a worker shipping data is self-evidently alive); ``check`` is the
    coordinator's periodic sweep that expires silent leases:

        ALIVE --silent > suspect_after--> SUSPECT
               --silent > lease_timeout--> DEAD
        DEAD --beat--> RECOVERING --beats*--> ALIVE (hysteresis:
        ``recovery_beats`` consecutive renewals, so one datagram that
        crawled out of a healing partition does not trigger failback)
        RECOVERING --silent > lease_timeout--> DEAD (relapse)

    Transitions are published on the optional event bus as
    ``worker_transition`` events.
    """

    _subject, _evidence = "worker", "silence"
    _transition, _event, _dead = LeaseTransition, WORKER_TRANSITION, WorkerState.DEAD

    def __init__(
        self,
        lease_timeout: float = 6.0,
        suspect_after: float = 3.0,
        recovery_beats: int = 2,
        events: Optional[EventBus] = None,
    ) -> None:
        super().__init__(events)
        if not 0 < suspect_after < lease_timeout:
            raise ValueError(
                f"need 0 < suspect_after < lease_timeout, got "
                f"{suspect_after!r} / {lease_timeout!r}"
            )
        if recovery_beats < 1:
            raise ValueError(f"recovery_beats must be >= 1, got {recovery_beats!r}")
        self.lease_timeout = lease_timeout
        self.suspect_after = suspect_after
        self.recovery_beats = recovery_beats

    # -- registration and lookup ---------------------------------------
    def register(self, worker: str, now: float) -> WorkerLease:
        lease = self._records.get(worker)
        if lease is None:
            lease = self._records[worker] = WorkerLease(worker, now)
        return lease

    def state(self, worker: str) -> WorkerState:
        return self._records[worker].state

    # -- intake ---------------------------------------------------------
    def beat(self, worker: str, now: float) -> None:
        """A datagram arrived from ``worker``: renew its lease."""
        lease = self.register(worker, now)
        lease.last_beat = now
        lease.beats += 1
        if lease.state is WorkerState.DEAD:
            lease.recovery_streak = 1
            self._move(lease, WorkerState.RECOVERING, now, 0.0)
        elif lease.state is WorkerState.RECOVERING:
            lease.recovery_streak += 1
            if lease.recovery_streak >= self.recovery_beats:
                lease.recoveries += 1
                self._move(lease, WorkerState.ALIVE, now, 0.0)
        elif lease.state is WorkerState.SUSPECT:
            self._move(lease, WorkerState.ALIVE, now, 0.0)

    def check(self, now: float) -> None:
        """Expire silent leases (the coordinator's periodic sweep)."""
        for lease in self._records.values():
            silence = now - lease.last_beat
            if lease.state is WorkerState.DEAD:
                continue
            if silence > self.lease_timeout:
                lease.expiries += 1
                lease.recovery_streak = 0
                self._move(lease, WorkerState.DEAD, now, silence)
            elif lease.state is WorkerState.ALIVE and silence > self.suspect_after:
                self._move(lease, WorkerState.SUSPECT, now, silence)

