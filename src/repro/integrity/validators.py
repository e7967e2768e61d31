"""Per-sample plausibility validators for SNMP counter data.

PR 1 hardened the monitor against *absent* data; these checks harden it
against *wrong* data.  Each validator inspects one freshly computed
:class:`~repro.core.poller.InterfaceRates` sample (plus the two raw
readings it was derived from) and yields zero or more typed
:class:`IntegrityVerdict` records.

Severity semantics:

- ``VIOLATION`` -- the sample is demonstrably implausible (a derived rate
  above line rate, a raw counter running backwards without a credible
  wrap, a polled ifSpeed that contradicts the topology).  Violating
  samples are rejected outright and decay the interface's trust score.
- ``SUSPECT`` -- the sample *might* be wrong but an honest explanation
  exists (counters frozen on a possibly-idle link, a poll interval long
  enough to hide a counter wrap).  Suspect samples are admitted and
  annotated; whether they decay trust is per-check (``decays_trust``),
  because e.g. wrap risk is a configuration property, not evidence that
  this interface's agent misbehaves.

The checks are deliberately conservative: the simulated agents serve
timer-refreshed counter caches, so legitimate single-interval rates can
overshoot line rate by ~25 % when displaced octets pile into one
interval.  Default tolerances sit well above that band so a fault-free
run never trips a violation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.poller import InterfaceRates

# Counter32 wraps at 2^32; at ifSpeed bits/s an octet counter takes
# 2^32 * 8 / speed seconds to wrap.  Polling slower than *half* that
# makes a double wrap indistinguishable from a single one.
_COUNTER_SPAN = 2 ** 32


class Severity(enum.Enum):
    OK = "ok"
    SUSPECT = "suspect"
    VIOLATION = "violation"


@dataclass(slots=True, unsafe_hash=True)
class IntegrityVerdict:
    """One validator's finding about one sample (or interface pair); a
    value, slotted and not ``frozen`` for ``InterfaceRates``'s reason."""

    check: str  # e.g. "rate_bound", "cross_check"
    severity: Severity
    node: str
    if_index: int
    time: float
    detail: str = ""
    decays_trust: bool = True

    def __str__(self) -> str:
        return (
            f"[{self.time:9.3f}s] {self.check}:{self.severity.value}"
            f" {self.node}.if{self.if_index}" + (f" {self.detail}" if self.detail else "")
        )


@dataclass(frozen=True)
class SampleContext:
    """Everything a validator may inspect about one ingested sample.

    ``prev``/``cur`` are the two raw readings the sample was derived
    from, ``(sysUpTime, counters)`` with ``counters`` the six Counter32
    values in the poller's column order (octets in and out, unicast
    packets in and out, non-unicast packets in and out).  ``speed_bps`` is the topology-declared
    interface speed; ``polled_speed_bps`` is what the agent's own MIB
    claimed via ifSpeed, when the monitor polls it (cross-check mode).
    """

    sample: InterfaceRates
    prev: tuple
    cur: tuple
    speed_bps: Optional[float]
    polled_speed_bps: Optional[float]
    configured_interval: float


def wrap_period_seconds(speed_bps: float) -> float:
    """Seconds an octet Counter32 takes to wrap at line rate."""
    return _COUNTER_SPAN * 8.0 / speed_bps


class RateBoundValidator:
    """Derived rate must not exceed ifSpeed by more than ``tolerance``.

    Also distinguishes the *counter regression* case: when the raw
    counter went backwards, the modular delta reads as an enormous
    "wrap" and the rate lands far beyond anything the line could carry.
    An over-bound rate whose raw counter moved backwards is reported as
    ``counter_regression`` rather than ``rate_bound`` -- same severity,
    better diagnosis.
    """

    def __init__(self, tolerance: float = 0.5) -> None:
        if tolerance < 0:
            raise ValueError(f"negative rate tolerance {tolerance!r}")
        self.tolerance = tolerance

    def limit(self, speed_bps: float) -> float:
        """The highest byte rate an interface of this speed may show."""
        return (speed_bps / 8.0) * (1.0 + self.tolerance)

    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        speed = ctx.polled_speed_bps or ctx.speed_bps
        if not speed:
            return []
        limit = self.limit(speed)
        verdicts: List[IntegrityVerdict] = []
        cur, prev = ctx.cur[1], ctx.prev[1]
        directions = (  # the octet counters are the first two
            ("in", ctx.sample.in_bytes_per_s, cur[0] < prev[0]),
            ("out", ctx.sample.out_bytes_per_s, cur[1] < prev[1]),
        )
        for name, rate, regressed in directions:
            if rate <= limit:  # false for NaN: a rate that is no number is over
                continue
            verdicts.append(
                IntegrityVerdict(
                    check="counter_regression" if regressed else "rate_bound",
                    severity=Severity.VIOLATION,
                    node=ctx.sample.node,
                    if_index=ctx.sample.if_index,
                    time=ctx.sample.time,
                    detail=(
                        f"{name} rate {rate:.0f} B/s exceeds"
                        f" {limit:.0f} B/s ({speed / 1e6:.0f} Mb/s"
                        f" +{self.tolerance:.0%})"
                        + (" after raw counter regression" if regressed else "")
                    ),
                )
            )
        return verdicts


class StuckCounterValidator:
    """Counters frozen across several polls *after* observed activity.

    A genuinely idle interface legitimately reports identical counters
    forever, so freezing alone proves nothing; freezing right after the
    interface carried traffic is suspicious.  Even then only SUSPECT --
    traffic may simply have stopped -- and by default the verdict does
    not decay trust (``decay_trust=False`` unless configured otherwise):
    without a second opinion (the cross-checker) the monitor cannot tell
    "stuck" from "quiet", and quarantining quiet links would throw away
    good data.  The verdict feeds the cross-checker's attribution logic
    and the status surfaces instead.
    """

    def __init__(self, stuck_after: int = 3, decay_trust: bool = False) -> None:
        if stuck_after < 1:
            raise ValueError(f"stuck_after must be >= 1, got {stuck_after!r}")
        self.stuck_after = stuck_after
        self.decay_trust = decay_trust
        # (node, if_index) -> [consecutive frozen polls, ever saw octets move],
        # advanced in place: whoever holds a list from ``state`` holds the
        # live one until ``forget`` drops it.
        self._state: Dict[Tuple[str, int], List] = {}

    def state(self, key: Tuple[str, int]) -> List:
        """One interface's live ``[streak, was_active]``, made on first ask."""
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = [0, False]
        return state

    def forget(self, node: str, if_index: int) -> None:
        """Drop streak state (agent restarted: baselines are new)."""
        self._state.pop((node, if_index), None)

    def advance(
        self, state: List, sample: InterfaceRates, prev: tuple, cur: tuple
    ) -> Optional[IntegrityVerdict]:
        """Move one interface's ``state`` over one sample; the verdict the
        sample draws, if any.  The rule keeps state, so it sees every
        sample: ``check`` is this on the state it looks up itself.
        Frozen means the octet and unicast counters, the first four of
        each reading, did not move."""
        if cur[1][:4] == prev[1][:4]:
            state[0] += 1
        else:
            state[0], state[1] = 0, True
        if not (state[1] and state[0] >= self.stuck_after):
            return None
        return IntegrityVerdict(
            check="stuck_counters",
            severity=Severity.SUSPECT,
            node=sample.node,
            if_index=sample.if_index,
            time=sample.time,
            detail=(
                f"counters frozen for {state[0]} consecutive polls"
                " after earlier activity"
            ),
            decays_trust=self.decay_trust,
        )

    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        sample = ctx.sample
        state = self.state((sample.node, sample.if_index))
        verdict = self.advance(state, sample, ctx.prev, ctx.cur)
        return [verdict] if verdict is not None else []


class SpeedValidator:
    """Polled ifSpeed must agree with the topology-declared speed.

    Only fires when the monitor actually polls ifSpeed (cross-check
    mode).  ifSpeed is a Gauge32, so declared speeds at or beyond 2^32
    bits/s are unrepresentable and skipped.
    """

    def __init__(self, rel_tolerance: float = 0.01) -> None:
        if not rel_tolerance >= 0:  # equal speeds always agree
            raise ValueError(f"negative speed tolerance {rel_tolerance!r}")
        self.rel_tolerance = rel_tolerance

    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        declared, polled = ctx.speed_bps, ctx.polled_speed_bps
        if not declared or polled is None or declared >= _COUNTER_SPAN:
            return []
        if abs(polled - declared) <= declared * self.rel_tolerance:
            return []
        return [
            IntegrityVerdict(
                check="speed_mismatch",
                severity=Severity.VIOLATION,
                node=ctx.sample.node,
                if_index=ctx.sample.if_index,
                time=ctx.sample.time,
                detail=(
                    f"agent claims ifSpeed {polled / 1e6:g} Mb/s,"
                    f" topology declares {declared / 1e6:g} Mb/s"
                ),
            )
        ]


class WrapRiskValidator:
    """Flag measured intervals long enough to hide a Counter32 wrap.

    ``Counter32.delta`` is correct for at most one wrap per interval;
    an interval beyond half the wrap period implied by ifSpeed makes a
    double wrap plausible, silently halving the computed rate.  That is
    a configuration/timing property, not agent misbehaviour, so the
    verdict is SUSPECT and never decays trust -- it annotates the sample
    and surfaces in status output.  (The one-time configuration warning
    for a *scheduled* interval beyond the threshold is emitted by the
    pipeline at construction.)
    """

    def check(self, ctx: SampleContext) -> List[IntegrityVerdict]:
        speed = ctx.speed_bps
        if not speed:
            return []
        half_wrap = wrap_period_seconds(speed) / 2.0
        if ctx.sample.interval <= half_wrap:
            return []
        return [
            IntegrityVerdict(
                check="wrap_risk",
                severity=Severity.SUSPECT,
                node=ctx.sample.node,
                if_index=ctx.sample.if_index,
                time=ctx.sample.time,
                detail=(
                    f"measured interval {ctx.sample.interval:.0f} s exceeds"
                    f" half the Counter32 wrap period ({half_wrap:.0f} s at"
                    f" {speed / 1e6:g} Mb/s); a double wrap would go unseen"
                ),
                decays_trust=False,
            )
        ]
