"""Per-interface trust scores and quarantine with hysteresis.

Every measured interface carries a trust score in [0, 1] starting at
1.0.  Violations multiply it down hard, suspect findings (when their
check opts in) multiply it down gently, and clean polls add a fixed
recovery step.  An interface whose score falls below
``quarantine_below`` is quarantined -- its samples are withheld from the
:class:`~repro.core.poller.RateTable` so the staleness machinery
degrades dependent reports exactly as if the data were missing -- and
it is released only once the score climbs back above ``release_above``
(hysteresis prevents flapping at the threshold).

The asymmetry is deliberate: two violations at the default decay take a
pristine interface to 0.25 (quarantined within two bad polls), while
recovery needs six consecutive clean polls to cross 0.8.  Distrust is
cheap to earn and slow to shed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.dataflow import EpochClock
from repro.integrity.validators import IntegrityVerdict, Severity
from repro.telemetry.events import EventBus, QUARANTINE_ENTER, QUARANTINE_EXIT

Key = Tuple[str, int]


@dataclass
class TrustRecord:
    """Mutable trust state for one (node, ifIndex)."""

    score: float = 1.0
    quarantined: bool = False
    quarantined_since: Optional[float] = None
    violations: int = 0
    suspects: int = 0
    quarantines: int = 0
    releases: int = 0
    last_verdict: Optional[IntegrityVerdict] = None


class QuarantineManager:
    """Applies verdicts to trust scores and tracks quarantine state."""

    def __init__(
        self,
        quarantine_below: float = 0.3,
        release_above: float = 0.8,
        violation_decay: float = 0.5,
        suspect_decay: float = 0.7,
        recover_step: float = 0.1,
        events: Optional[EventBus] = None,
    ) -> None:
        if not 0.0 <= quarantine_below < release_above <= 1.0:
            raise ValueError(
                "need 0 <= quarantine_below < release_above <= 1, got"
                f" {quarantine_below!r} / {release_above!r}"
            )
        for name, value in (
            ("violation_decay", violation_decay),
            ("suspect_decay", suspect_decay),
        ):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value!r}")
        if not recover_step >= 0.0:  # a pristine record stays pristine when clean
            raise ValueError(f"recover_step must be >= 0, got {recover_step!r}")
        self.quarantine_below = quarantine_below
        self.release_above = release_above
        self.violation_decay = violation_decay
        self.suspect_decay = suspect_decay
        self.recover_step = recover_step
        self.events = events
        self._records: Dict[Key, TrustRecord] = {}
        # Running totals over all records, moved only at the two transitions
        # in ``_update_state``: per-sample readers never walk the records.
        self.quarantined = 0  # interfaces quarantined right now
        self.quarantines = 0  # enter transitions so far
        self.releases = 0  # release transitions so far
        # Epochs bump on quarantine enter/release only -- trust-score
        # drift between the thresholds does not change what the bandwidth
        # calculator sees, so it must not invalidate caches.
        self._epochs = EpochClock()

    @property
    def clock(self) -> int:
        """Global quarantine clock: increases on every enter/release."""
        return self._epochs.clock

    def epoch_of(self, node: str, if_index: int) -> int:
        """Enter/release epoch of one interface (0: never quarantined)."""
        return self._epochs.epoch((node, if_index))

    # ------------------------------------------------------------------
    def record(self, node: str, if_index: int) -> TrustRecord:
        """The interface's trust record, created pristine on first sight."""
        key = (node, if_index)
        rec = self._records.get(key)
        if rec is None:
            rec = self._records[key] = TrustRecord()
        return rec

    def trust(self, node: str, if_index: int) -> float:
        rec = self._records.get((node, if_index))
        return rec.score if rec is not None else 1.0

    def is_quarantined(self, node: str, if_index: int) -> bool:
        rec = self._records.get((node, if_index))
        return rec.quarantined if rec is not None else False

    def quarantined_keys(self) -> List[Key]:
        return sorted(k for k, r in self._records.items() if r.quarantined)

    def records(self) -> Dict[Key, TrustRecord]:
        return dict(self._records)

    # ------------------------------------------------------------------
    def apply(self, node: str, if_index: int, verdicts: Iterable[IntegrityVerdict], now: float) -> TrustRecord:
        """Decay trust per the verdicts, then update quarantine state."""
        rec = self.record(node, if_index)
        for verdict in verdicts:
            rec.last_verdict = verdict
            if verdict.severity is Severity.VIOLATION:
                rec.violations += 1
                if verdict.decays_trust:
                    rec.score *= self.violation_decay
            elif verdict.severity is Severity.SUSPECT:
                rec.suspects += 1
                if verdict.decays_trust:
                    rec.score *= self.suspect_decay
        self._update_state(node, if_index, rec, now)
        return rec

    def record_clean(self, node: str, if_index: int, now: float) -> TrustRecord:
        """A poll passed every validator: recover some trust."""
        rec = self.record(node, if_index)
        rec.score = min(1.0, rec.score + self.recover_step)
        self._update_state(node, if_index, rec, now)
        return rec

    # ------------------------------------------------------------------
    def _update_state(self, node: str, if_index: int, rec: TrustRecord, now: float) -> None:
        if not rec.quarantined and rec.score < self.quarantine_below:
            rec.quarantined = True
            rec.quarantined_since = now
            rec.quarantines += 1
            self.quarantined += 1
            self.quarantines += 1
            self._epochs.bump((node, if_index))
            if self.events is not None:
                self.events.publish(
                    QUARANTINE_ENTER,
                    now,
                    node=node,
                    if_index=if_index,
                    trust=round(rec.score, 4),
                )
        elif rec.quarantined and rec.score >= self.release_above:
            rec.quarantined = False
            since = rec.quarantined_since
            rec.quarantined_since = None
            rec.releases += 1
            self.quarantined -= 1
            self.releases += 1
            self._epochs.bump((node, if_index))
            if self.events is not None:
                self.events.publish(
                    QUARANTINE_EXIT,
                    now,
                    node=node,
                    if_index=if_index,
                    trust=round(rec.score, 4),
                    held_seconds=round(now - since, 3) if since is not None else None,
                )
