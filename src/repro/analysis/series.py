"""Time-series utilities for aligning measurements with load schedules.

A bandwidth sample reported at time ``t`` covers roughly the preceding
polling interval, so samples that straddle a load-schedule breakpoint mix
two levels and belong to neither.  :func:`stable_mask` identifies the
samples safely inside one level -- the paper's per-level statistics
implicitly do the same by averaging within each 60-second step.
"""

from __future__ import annotations

from typing import Sequence

from repro._numpy import np
from repro.simnet.trafficgen import StepSchedule


def stable_mask(
    times: np.ndarray,
    schedule: StepSchedule,
    window: float,
    guard: float = 0.0,
) -> np.ndarray:
    """True where the whole interval ``[t - window - guard, t + guard]``
    sits inside a single schedule level.

    ``window`` is the measurement interval (poll period); ``guard`` adds
    slack for polling jitter and agent counter staleness.
    """
    times = np.asarray(times, dtype=float)
    mask = np.ones(len(times), dtype=bool)
    for breakpoint in schedule.breakpoints:
        straddles = (times - window - guard < breakpoint) & (times + guard >= breakpoint)
        mask &= ~straddles
    return mask


def combined_stable_mask(
    times: np.ndarray,
    schedules: Sequence[StepSchedule],
    window: float,
    guard: float = 0.0,
) -> np.ndarray:
    """Stable with respect to *every* schedule (multi-load experiments)."""
    mask = np.ones(len(times), dtype=bool)
    for schedule in schedules:
        mask &= stable_mask(times, schedule, window, guard)
    return mask

