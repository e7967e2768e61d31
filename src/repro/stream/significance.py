"""Change-significance filters: decide which moves wake a subscriber.

Serving millions of consumers means the publisher must not forward
every twitch of every counter.  A filter sits between the matrix's
dirty-pair recomputation and the subscription queues and answers one
question per (pair, new report): *is this move worth delivering?*

:class:`QuantileDeadbandFilter` is the adaptive deadband in the spirit
of Chambers, James, Lambert & Vander Wiel, *Monitoring Networked
Applications With Incremental Quantile Estimation* (Statistical Science
2006): an :class:`~repro.telemetry.quantile.EwmaQuantile` tracks the
distribution of routine per-sample moves for each pair; a move is
significant only when it exceeds ``factor`` times the current
``q``-quantile of that distribution.  Jitter teaches the filter its own
amplitude and is thereafter suppressed; a genuine level shift exceeds
the learned quantile and passes.  Because the estimator is
exponentially weighted, the deadband *follows* a drifting noise floor
instead of freezing at the first one it saw.

Trust-status transitions and NaN flips (a path going unavailable
answers NaN) are always significant, and ``reset()`` lets the publisher
re-baseline after a topology epoch bump -- the distribution of moves on
a rewired network is a new distribution, and the estimators' ``reset()``
(see :mod:`repro.telemetry.quantile`) exists precisely for that.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.telemetry.quantile import EwmaQuantile

__all__ = ["QuantileDeadbandFilter"]

PairKey = Tuple[str, str]


class QuantileDeadbandFilter:
    """Adaptive deadband: ``factor`` x the ``q``-quantile of recent moves.

    The first observation of a pair is always significant (a subscriber
    must learn the initial level), NaN transitions in either direction
    are always significant, and :meth:`delivered` records the value a
    passing event actually carried so the deadband is anchored at what
    the consumer last saw, not at every intermediate twitch.

    ``min_samples`` moves must be observed for a pair before the learned
    quantile is trusted; until then ``floor_bps`` (a fixed deadband)
    stands in, so a cold filter neither floods nor starves its
    subscribers.  ``weight`` is the estimator's EWMA weight -- larger
    follows a drifting noise floor faster.
    """

    q = 0.9
    factor = 2.0
    min_samples = 8
    weight = 0.1

    def __init__(self, floor_bps: float = 0.0) -> None:
        if floor_bps < 0.0:
            raise ValueError(f"floor_bps must be >= 0, got {floor_bps!r}")
        self.floor_bps = floor_bps
        self._estimators: Dict[PairKey, EwmaQuantile] = {}
        self._last_delivered: Dict[PairKey, float] = {}
        self._last_seen: Dict[PairKey, float] = {}

    # -- the one question ----------------------------------------------
    def significant(self, pair: PairKey, value: float) -> bool:
        """Would delivering ``value`` tell the subscriber anything new?

        Learning happens against the *previous sample* (the Chambers
        estimators track the distribution of routine per-sample moves);
        the significance test runs against the *last delivered* value,
        so a slow drift accumulates against the anchor and eventually
        passes instead of being suppressed one small step at a time.
        """
        seen = self._last_seen.get(pair)
        if seen is not None and not (math.isnan(value) or math.isnan(seen)):
            self._observe(pair, abs(value - seen))
        self._last_seen[pair] = value
        last = self._last_delivered.get(pair)
        if last is None:
            return True
        value_nan = math.isnan(value)
        last_nan = math.isnan(last)
        if value_nan or last_nan:
            return value_nan != last_nan  # NaN flip: yes; NaN steady: no
        return abs(value - last) > self._deadband(pair)

    def delivered(self, pair: PairKey, value: float) -> None:
        """Record that an event carrying ``value`` was actually emitted."""
        self._last_delivered[pair] = value

    def last_delivered(self, pair: PairKey) -> float:
        """The anchor value (NaN before any delivery)."""
        return self._last_delivered.get(pair, math.nan)

    def _observe(self, pair: PairKey, delta: float) -> None:
        estimator = self._estimators.get(pair)
        if estimator is None:
            estimator = self._estimators[pair] = EwmaQuantile(
                self.q, weight=self.weight
            )
        estimator.observe(delta)

    def _deadband(self, pair: PairKey) -> float:
        estimator = self._estimators.get(pair)
        if estimator is None or estimator.count < self.min_samples:
            return self.floor_bps
        learned = self.factor * estimator.value
        return max(self.floor_bps, learned)

    def noise_floor(self, pair: PairKey) -> Optional[float]:
        """The learned q-quantile of moves for one pair (None: cold)."""
        estimator = self._estimators.get(pair)
        if estimator is None or estimator.count < self.min_samples:
            return None
        return estimator.value

    def reset(self) -> None:
        """Re-baseline: forget anchors and learned noise floors."""
        self._last_delivered.clear()
        self._last_seen.clear()
        for estimator in self._estimators.values():
            estimator.reset()
