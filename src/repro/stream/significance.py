"""Change-significance filters: decide which moves wake a subscriber.

Serving millions of consumers means the publisher must not forward
every twitch of every counter.  A filter sits between the matrix's
dirty-pair recomputation and the subscription queues and answers one
question per (pair, new report): *is this move worth delivering?*

Two policies, one interface (:meth:`SignificanceFilter.significant`):

:class:`DeadbandFilter`
    A fixed deadband around the last *delivered* value: the move must
    exceed ``max(absolute_bps, relative * |last|)``.  Simple, zero
    learning, the right tool when the operator knows the noise floor.

:class:`QuantileDeadbandFilter`
    The adaptive deadband in the spirit of Chambers, James, Lambert &
    Vander Wiel, *Monitoring Networked Applications With Incremental
    Quantile Estimation* (Statistical Science 2006): an
    :class:`~repro.telemetry.quantile.EwmaQuantile` tracks the
    distribution of routine per-sample moves for each pair; a move is
    significant only when it exceeds ``factor`` times the current
    ``q``-quantile of that distribution.  Jitter teaches the filter its
    own amplitude and is thereafter suppressed; a genuine level shift
    exceeds the learned quantile and passes.  Because the estimator is
    exponentially weighted, the deadband *follows* a drifting noise
    floor instead of freezing at the first one it saw.

Both filters treat trust-status transitions and NaN flips (a path going
unavailable answers NaN) as always significant, and both expose
``reset()`` so the publisher can re-baseline after a topology epoch
bump -- the distribution of moves on a rewired network is a new
distribution, and the estimators' ``reset()`` (see
:mod:`repro.telemetry.quantile`) exists precisely for that.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.telemetry.quantile import EwmaQuantile

__all__ = ["DeadbandFilter", "QuantileDeadbandFilter", "SignificanceFilter"]

PairKey = Tuple[str, str]


class SignificanceFilter:
    """Base: per-pair last-delivered values plus the always-pass rules.

    Subclasses implement :meth:`_deadband`, the threshold a move must
    exceed.  The base class owns the bookkeeping every policy shares:
    the first observation of a pair is always significant (a subscriber
    must learn the initial level), NaN transitions in either direction
    are always significant, and :meth:`delivered` records the value a
    passing event actually carried so the deadband is anchored at what
    the consumer last saw, not at every intermediate twitch.
    """

    def __init__(self) -> None:
        self._last_delivered: Dict[PairKey, float] = {}
        self._last_seen: Dict[PairKey, float] = {}

    # -- policy ---------------------------------------------------------
    def _deadband(self, pair: PairKey, last: float, value: float) -> float:
        raise NotImplementedError

    def _observe(self, pair: PairKey, delta: float) -> None:
        """Hook: learning filters see every sample-to-sample move."""

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
        return abs(value - last) > self._deadband(pair, last, value)

    def delivered(self, pair: PairKey, value: float) -> None:
        """Record that an event carrying ``value`` was actually emitted."""
        self._last_delivered[pair] = value

    def last_delivered(self, pair: PairKey) -> float:
        """The anchor value (NaN before any delivery)."""
        return self._last_delivered.get(pair, math.nan)

    def reset(self) -> None:
        """Re-baseline: forget anchors (and any learned noise floors)."""
        self._last_delivered.clear()
        self._last_seen.clear()


class DeadbandFilter(SignificanceFilter):
    """Fixed absolute/relative deadband around the last delivered value."""

    def __init__(
        self, absolute_bps: float = 0.0, relative: float = 0.0
    ) -> None:
        if absolute_bps < 0.0:
            raise ValueError(f"absolute_bps must be >= 0, got {absolute_bps!r}")
        if not 0.0 <= relative < 1.0:
            raise ValueError(f"relative must be in [0, 1), got {relative!r}")
        super().__init__()
        self.absolute_bps = absolute_bps
        self.relative = relative

    def _deadband(self, pair: PairKey, last: float, value: float) -> float:
        return max(self.absolute_bps, self.relative * abs(last))


class QuantileDeadbandFilter(SignificanceFilter):
    """Adaptive deadband: ``factor`` x the q-quantile of recent moves.

    ``min_samples`` moves must be observed for a pair before the learned
    quantile is trusted; until then ``floor_bps`` (a fixed deadband)
    stands in, so a cold filter neither floods nor starves its
    subscribers.  ``weight`` is the estimator's EWMA weight -- larger
    follows a drifting noise floor faster.
    """

    factor = 2.0
    min_samples = 8
    weight = 0.1

    def __init__(self, q: float = 0.9, floor_bps: float = 0.0) -> None:
        if floor_bps < 0.0:
            raise ValueError(f"floor_bps must be >= 0, got {floor_bps!r}")
        super().__init__()
        self.q = q
        self.floor_bps = floor_bps
        self._estimators: Dict[PairKey, EwmaQuantile] = {}

    def _observe(self, pair: PairKey, delta: float) -> None:
        estimator = self._estimators.get(pair)
        if estimator is None:
            estimator = self._estimators[pair] = EwmaQuantile(
                self.q, weight=self.weight
            )
        estimator.observe(delta)

    def _deadband(self, pair: PairKey, last: float, value: float) -> float:
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
        super().reset()
        for estimator in self._estimators.values():
            estimator.reset()
