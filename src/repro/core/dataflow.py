"""Epoch primitives for the incremental measurement dataflow.

The monitor's measurement pipeline used to recompute every path report
from raw counters on every request -- fine for the paper's 9 hosts,
O(n² · path length) at production scale.  The incremental dataflow
instead tags every *input* of a measurement with an **epoch**: a
monotonically increasing stamp bumped exactly when that input changes.

Epoch sources and what bumps them:

====================  ==========================================  =====================
source                epoch key                                    bumped by
====================  ==========================================  =====================
rate table            (node, ifIndex)                              sample admitted on ingest
link-state registry   connection endpoints                         linkDown/linkUp trap,
                                                                   ifOperStatus change
agent health          node                                         health-state transition
quarantine            (node, ifIndex)                              quarantine enter/release
degraded sources      (node, ifIndex)                              mark/clear (lossy uplink)
topology graph        (whole graph)                                ``invalidate_paths``
====================  ==========================================  =====================

A derived value (a connection measurement, a hub aggregate, a path
report, an all-pairs matrix cell) records the epochs of the inputs it
was computed from; it is valid exactly as long as those epochs are
unchanged.  Correctness invariant, enforced by the property tests in
``tests/test_dataflow.py``: **incremental recomputation is bit-identical
to recomputing everything from scratch** -- caching may only ever change
how much work is done, never a single output bit.

:class:`EpochClock` is the shared primitive: a per-owner global clock
plus per-key stamps.  Because every bump draws from the owner's global
clock, "any key changed since stamp S" is a single integer comparison
against :attr:`EpochClock.clock` -- consumers first compare the global
clock (cheap, catches the common no-change case) and only then the
per-key epochs they actually depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

__all__ = [
    "EpochClock", "ConnCacheEntry", "BoundPath", "DegradedSourceSet", "PublishClock",
]


class EpochClock:
    """Monotonic per-key epoch stamps drawn from one global clock.

    ``epoch(key) == 0`` means the key has never changed (the virgin
    epoch); real stamps start at 1.  The global :attr:`clock` equals the
    largest stamp ever issued, so a consumer that recorded ``clock`` can
    tell "nothing anywhere changed" without touching per-key state.
    """

    __slots__ = ("clock", "_epochs")

    def __init__(self) -> None:
        self.clock: int = 0
        self._epochs: Dict[Hashable, int] = {}

    def bump(self, key: Hashable) -> int:
        """Stamp ``key`` with a fresh epoch; returns the new stamp."""
        self.clock += 1
        self._epochs[key] = self.clock
        return self.clock

    def epoch(self, key: Hashable) -> int:
        """The last stamp issued for ``key`` (0: never bumped)."""
        return self._epochs.get(key, 0)

    def __len__(self) -> int:
        return len(self._epochs)


class DegradedSourceSet:
    """Counter sources whose data is known-lossy right now.

    The distributed plane marks a (node, ifIndex) here when the worker
    responsible for polling it lost its lease or when a batch of its
    shipped readings was lost: the rate table then still holds a sample,
    but the plane *knows* newer data existed and was lost, so dependent
    reports must not present that sample at full confidence while it is
    still younger than the staleness bound.

    Marks clear per-interface the moment a fresh sample for the key is
    admitted again (failover re-coverage, the next reading spanning a
    lost batch, worker recovered).  State changes bump an
    :class:`EpochClock` so the bandwidth calculator's memoized
    measurements invalidate exactly like they do for quarantine or health
    flips.
    """

    __slots__ = ("_degraded", "_epochs")

    def __init__(self) -> None:
        self._degraded: set = set()
        self._epochs = EpochClock()

    @property
    def clock(self) -> int:
        """Global clock: increases on every mark/clear state change."""
        return self._epochs.clock

    def epoch_of(self, node: str, if_index: int) -> int:
        return self._epochs.epoch((node, if_index))

    def mark(self, node: str, if_index: int) -> bool:
        """Flag one source as lossy; True when this changed its state."""
        key = (node, if_index)
        if key in self._degraded:
            return False
        self._degraded.add(key)
        self._epochs.bump(key)
        return True

    def clear(self, node: str, if_index: int) -> bool:
        """Fresh data arrived for one source; True when it was marked."""
        key = (node, if_index)
        if key not in self._degraded:
            return False
        self._degraded.discard(key)
        self._epochs.bump(key)
        return True

    def is_degraded(self, node: str, if_index: int) -> bool:
        return (node, if_index) in self._degraded

    def keys(self) -> list:
        return sorted(self._degraded)

    def __len__(self) -> int:
        return len(self._degraded)


class PublishClock:
    """Strictly increasing publish-cycle epochs for the stream layer.

    Where :class:`EpochClock` stamps *inputs* (which interface changed),
    the publish clock stamps *outputs*: every event the stream publisher
    emits from one matrix snapshot carries the same publish epoch, and
    consecutive snapshots carry consecutive epochs.  Two guarantees ride
    on that, documented in ``docs/architecture.md`` and relied on by
    subscribers:

    - **coherence** -- events sharing an epoch describe one snapshot
      instant; a consumer rebuilding a view applies them as one batch;
    - **gap visibility** -- a subscriber whose queue overflowed under
      ``drop_oldest`` sees non-consecutive epochs and knows exactly
      that it missed cycles (and may re-read the matrix), instead of
      silently holding a stale picture.

    ``cycle_token`` additionally captures the upstream input clocks a
    snapshot was computed from, so a consumer can correlate a publish
    epoch back to the ingest epochs that produced it.
    """

    __slots__ = ("epoch", "last_token")

    def __init__(self) -> None:
        self.epoch: int = 0
        self.last_token: Optional[Tuple] = None

    def advance(self, token: Optional[Tuple] = None) -> int:
        """Open the next publish cycle; returns its epoch."""
        self.epoch += 1
        self.last_token = token
        return self.epoch


@dataclass(eq=False, slots=True)
class ConnCacheEntry:
    """One connection's memoized measurement inside the calculator.

    The entry owns its ``conn``: a holder that keeps entries (a
    :class:`BoundPath`) never hashes ``conn.endpoints()`` again, and
    neither does the calculator, which keeps the connection's counter
    source and hub, resolved once, as ``resolved``.
    ``token`` is the tuple of input epochs the measurement was computed
    from; ``now`` the report instant it was aged against; ``confidence``
    the trust figure derived from exactly this ``measurement`` (None is a
    legal value: structurally unmeasured).  ``stamp`` is the calculator's
    validation stamp at which the entry was last brought up to date: equal
    to the current stamp it is reusable as is, at or past the stamp at
    which an input clock last moved its token is still current and only
    the ages may need re-deriving.  Entries compare by identity, so they
    key the matrix's reverse index directly.
    """

    conn: object
    resolved: Optional[Tuple] = None  # (counter source, hub)
    token: Optional[Tuple] = None
    now: Optional[float] = None
    measurement: object = None
    confidence: Optional[float] = None
    stamp: int = -1


class BoundPath(tuple):
    """A traversed path resolved to its cache entries, in path order.

    Made by :meth:`~repro.core.bandwidth.BandwidthCalculator.bind`; held by
    whoever keeps a path for longer than one call (a watch, a matrix pair)
    and re-made when the path changes.
    """

    __slots__ = ()
