"""Incremental quantile estimation in O(1) memory per quantile.

The monitor must know the distribution of its own poll RTTs and cycle
durations without storing every sample (a production monitor runs for
months).  Two estimators are provided:

:class:`P2Quantile`
    The P-square algorithm of Jain & Chlamtac (CACM 1985): five markers
    track the target quantile plus the extremes and two intermediate
    quantiles; marker heights are adjusted with a piecewise-parabolic
    interpolation as observations stream in.  Converges on stationary
    streams; memory is five floats regardless of stream length.

:class:`EwmaQuantiles`
    The exponentially-weighted stochastic-approximation variant in the
    spirit of Chambers, James, Lambert & Vander Wiel, *Monitoring
    Networked Applications With Incremental Quantile Estimation*
    (Statistical Science 2006): recent observations dominate, so the
    estimate follows a *drifting* distribution (an agent that slows down
    mid-run moves the p99 within tens of samples instead of thousands).
    The update is the classic Robbins-Monro step ``q += step * (p - I(x
    <= q))`` with a step size scaled by an exponentially-weighted mean
    absolute deviation.  One instance holds a column of independent
    estimators (one per host pair of the stream) and updates a batch of
    them at once.

Both take observations with ``observe`` and read the current estimate
off the estimator.  :class:`P2Quantile` re-primes with ``reset()``; a
consumer of :class:`EwmaQuantiles` tracking a distribution that is
*defined* to have changed (the stream's significance filters after a
topology epoch bump) starts a fresh one instead of letting stale
estimates bias the new regime.
"""

from __future__ import annotations

import math
from typing import List

from repro._numpy import np


class P2Quantile:
    """P-square estimator for one quantile ``p`` in (0, 1)."""

    __slots__ = ("p", "count", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p!r}")
        self.p = p
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self.reset()

    def reset(self) -> None:
        """Forget every observation; the estimator re-primes from scratch."""
        p = self.p
        self.count = 0
        self._heights: List[float] = []  # marker heights q_0..q_4 once primed
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]  # actual marker positions n_i
        self._desired = [1.0, 1.0 + 2 * p, 1.0 + 4 * p, 3.0 + 2 * p, 5.0]

    # ------------------------------------------------------------------
    def observe(self, x: float) -> None:
        self.count += 1
        if self.count <= 5:
            self._heights.append(float(x))
            self._heights.sort()
            return
        q, n = self._heights, self._positions
        # Locate the cell k holding x, extending the extremes if needed.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and not x < q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = self._desired[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1.0 if delta > 0 else -1.0
                candidate = self._parabolic(i, d)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, d)
                q[i] = candidate
                n[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._heights, self._positions
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._heights, self._positions
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """Current estimate; NaN before any observation."""
        if self.count == 0:
            return math.nan
        if self.count <= 5:
            # Exact while the sample fits in the markers.
            rank = self.p * (len(self._heights) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(self._heights) - 1)
            frac = rank - lo
            return self._heights[lo] * (1 - frac) + self._heights[hi] * frac
        return self._heights[2]


class EwmaQuantiles:
    """Exponentially-weighted incremental quantiles for drifting streams,
    one independent estimator per slot, updated as columns.

    ``weight`` plays the usual EWMA role: larger values track changes
    faster at the price of more estimation noise.  The step size adapts
    to the data's scale through an exponentially-weighted mean absolute
    deviation, so the estimator needs no prior knowledge of units.

    A consumer that tracks many streams at once (one per host pair) keeps
    them here as three arrays and feeds a whole batch in one
    :meth:`observe`: numpy does, element by element, the same float
    operations in the same order as the one-stream update, so every
    estimate is bit-identical to feeding each stream on its own.
    """

    __slots__ = ("p", "weight", "count", "estimate", "scale")

    def __init__(self, p: float, weight: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p!r}")
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"weight must be in (0, 1], got {weight!r}")
        self.p = p
        self.weight = weight
        self.count = np.zeros(0, dtype=np.int64)
        self.estimate = np.zeros(0)  # NaN: no observation yet
        self.scale = np.zeros(0)

    def grow(self, size: int) -> None:
        """Make slots ``0 .. size - 1`` exist; new ones have seen nothing."""
        extra = size - len(self.count)
        if extra > 0:
            self.count = np.concatenate((self.count, np.zeros(extra, dtype=np.int64)))
            self.estimate = np.concatenate((self.estimate, np.full(extra, np.nan)))
            self.scale = np.concatenate((self.scale, np.zeros(extra)))

    def observe(self, slots: np.ndarray, x: np.ndarray) -> None:
        """Feed ``x[k]`` to slot ``slots[k]``; the slots must be distinct.

        The Robbins-Monro step ``q += step * (p - I(x <= q))``: a slot's
        first observation seeds its estimate, every later one moves the
        scale and then the estimate.
        """
        p, weight = self.p, self.weight
        bound = max(p, 1.0 - p)
        count = self.count[slots]
        estimate = self.estimate[slots]
        scale = self.scale[slots]
        deviation = np.abs(x - estimate)
        moved = scale + weight * (deviation - scale)
        step = weight * np.where(
            moved > 0.0, moved, np.where(deviation != 0.0, deviation, 1.0)
        )
        stepped = np.where(
            x > estimate,
            estimate + step * p / bound,
            estimate - step * (1.0 - p) / bound,
        )
        first = count == 0
        self.count[slots] = count + 1
        self.estimate[slots] = np.where(first, x, stepped)
        self.scale[slots] = np.where(first, scale, moved)
