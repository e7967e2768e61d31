"""Change-significance filters: decide which moves wake a subscriber.

Serving millions of consumers means the publisher must not forward
every twitch of every counter.  A filter sits between the matrix's
dirty-pair recomputation and the subscription queues and answers one
question per (pair, new report): *is this move worth delivering?*

:class:`QuantileDeadbandFilter` is the adaptive deadband in the spirit
of Chambers, James, Lambert & Vander Wiel, *Monitoring Networked
Applications With Incremental Quantile Estimation* (Statistical Science
2006): an :class:`~repro.telemetry.quantile.EwmaQuantiles` column tracks
the distribution of routine per-sample moves for each pair; a move is
significant only when it exceeds ``factor`` times the current
``q``-quantile of that distribution.  Jitter teaches the filter its own
amplitude and is thereafter suppressed; a genuine level shift exceeds
the learned quantile and passes.  Because the estimator is
exponentially weighted, the deadband *follows* a drifting noise floor
instead of freezing at the first one it saw.

Trust-status transitions and NaN flips (a path going unavailable
answers NaN) are always significant, and ``reset()`` lets the publisher
re-baseline after a topology epoch bump -- the distribution of moves on
a rewired network is a new distribution, so the filter starts fresh
estimators (see :mod:`repro.telemetry.quantile`).

The filter keeps its per-pair state as columns (:mod:`repro.stream.columns`)
and answers for a batch of pairs at once: the publisher asks
:meth:`~QuantileDeadbandFilter.significant` once per cycle for every
candidate pair, and a single pair is a batch of one.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro._numpy import np
from repro.stream.columns import PairColumns
from repro.telemetry.quantile import EwmaQuantiles

__all__ = ["QuantileDeadbandFilter"]

PairKey = Tuple[str, str]


class QuantileDeadbandFilter(PairColumns):
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
    follows a drifting noise floor faster.  Pairs are asked about in
    batches of their :meth:`slots`.
    """

    q = 0.9
    factor = 2.0
    min_samples = 8
    weight = 0.1

    # The previous sample (learning) and the last delivered value (the
    # anchor), each with a flag for "none yet": NaN is a value both can
    # legitimately hold.
    _EMPTY = {
        "_seen": math.nan, "_has_seen": False, "_anchor": math.nan, "_has_anchor": False,
    }

    def __init__(self, floor_bps: float = 0.0) -> None:
        if floor_bps < 0.0:
            raise ValueError(f"floor_bps must be >= 0, got {floor_bps!r}")
        super().__init__()
        self.floor_bps = floor_bps
        self._moves = EwmaQuantiles(self.q, self.weight)

    def _grow(self, size: int) -> None:
        self._moves.grow(size)

    # -- the one question ----------------------------------------------
    def significant(self, slots: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Would delivering ``values[k]`` tell pair ``slots[k]``'s
        subscribers anything new?  One boolean per pair; the slots must
        be distinct.

        Learning happens against the *previous sample* (the Chambers
        estimators track the distribution of routine per-sample moves);
        the significance test runs against the *last delivered* value,
        so a slow drift accumulates against the anchor and eventually
        passes instead of being suppressed one small step at a time.
        """
        seen = self._seen[slots]
        value_nan = np.isnan(values)
        learn = self._has_seen[slots] & ~value_nan & ~np.isnan(seen)
        if learn.any():
            self._moves.observe(slots[learn], np.abs(values[learn] - seen[learn]))
        self._seen[slots] = values
        self._has_seen[slots] = True
        anchor = self._anchor[slots]
        anchor_nan = np.isnan(anchor)
        flip = value_nan | anchor_nan
        # NaN flip: yes; NaN steady: no; otherwise a move past the band.
        out = np.where(
            flip, value_nan != anchor_nan, np.abs(values - anchor) > self._deadband(slots)
        )
        return out | ~self._has_anchor[slots]

    def delivered(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Events carrying ``values`` were actually emitted: they are
        the pairs' new anchors."""
        self._anchor[slots] = values
        self._has_anchor[slots] = True

    def last_delivered(self, slots: np.ndarray) -> np.ndarray:
        """Each pair's anchor value (NaN before any delivery)."""
        return self._anchor[slots]

    def _deadband(self, slots: np.ndarray) -> np.ndarray:
        learned = self.factor * self._moves.estimate[slots]
        band = np.where(learned > self.floor_bps, learned, self.floor_bps)
        return np.where(
            self._moves.count[slots] < self.min_samples, self.floor_bps, band
        )

    def noise_floor(self, pair: PairKey) -> Optional[float]:
        """The learned q-quantile of moves for one pair (None: cold)."""
        slot = self._slot_of.get(pair)
        if slot is None or self._moves.count[slot] < self.min_samples:
            return None
        return float(self._moves.estimate[slot])

    def reset(self) -> None:
        """Re-baseline: forget anchors and learned noise floors."""
        super().reset()
        self._moves = EwmaQuantiles(self.q, self.weight)
        self._moves.grow(len(self._slot_of))
