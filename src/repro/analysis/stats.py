"""The paper's Table-2 accuracy statistics.

"The background traffic was calculated as the average of measured values
at [zero] generated load.  The average traffic was obtained for different
generated load by subtracting the background from the average of measured
traffic.  The average measured load less background was about 4 % larger
than the values of generated load. ... Table 2 also shows maximum
percentage error of individual value of measured traffic."

:func:`compute_table2` reproduces exactly that computation for any
generated-vs-measured :class:`~repro.experiments.scenarios.SeriesPair`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro._numpy import np


class StatsError(ValueError):
    """Raised when a series lacks the samples a statistic needs."""


# ----------------------------------------------------------------------
# Exact quantiles (ground truth for the telemetry estimators)
# ----------------------------------------------------------------------
def exact_quantile(values: Sequence[float], p: float) -> float:
    """The exact ``p``-quantile of ``values`` (linear interpolation).

    This is the batch answer the streaming estimators in
    :mod:`repro.telemetry.quantile` approximate in O(1) memory; tests
    compare the two.  Uses the same definition as ``numpy.quantile``'s
    default (``linear`` / Hyndman-Fan type 7).
    """
    if not 0.0 <= p <= 1.0:
        raise StatsError(f"quantile {p!r} outside [0, 1]")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise StatsError("cannot take a quantile of an empty series")
    return float(np.quantile(arr, p))


def exact_quantiles(
    values: Sequence[float], ps: Sequence[float] = (0.5, 0.9, 0.99)
) -> Dict[float, float]:
    """``{p: exact p-quantile}`` for several probabilities at once."""
    return {p: exact_quantile(values, p) for p in ps}


def quantile_rank_error(values: Sequence[float], p: float, estimate: float) -> float:
    """How far ``estimate`` sits from the true ``p``-quantile, in rank space.

    Returns ``|empirical_rank(estimate) - p|``: 0.01 means the estimate
    is the 0.51-quantile when the 0.50-quantile was wanted.  Rank error
    is the right yardstick for streaming quantile estimators -- absolute
    value error is meaningless across differently-scaled distributions.
    """
    if not 0.0 <= p <= 1.0:
        raise StatsError(f"quantile {p!r} outside [0, 1]")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise StatsError("cannot rank against an empty series")
    rank = float(np.count_nonzero(arr <= estimate)) / arr.size
    return abs(rank - p)


def background_estimate(
    measured: np.ndarray, generated: np.ndarray, stable: Optional[np.ndarray] = None
) -> float:
    """Mean measured traffic over the zero-generated-load samples."""
    measured = np.asarray(measured, dtype=float)
    generated = np.asarray(generated, dtype=float)
    mask = generated == 0
    if stable is not None:
        mask &= np.asarray(stable, dtype=bool)
    if not mask.any():
        raise StatsError("no zero-load samples to estimate background from")
    return float(np.mean(measured[mask]))


@dataclass(frozen=True)
class LevelStats:
    """One Table-2 row: statistics at one generated-load level (KB/s)."""

    generated: float
    n_samples: int
    avg_measured: float
    avg_less_background: float
    pct_error: float  # |avg_less_background - generated| / generated * 100
    max_pct_error: float  # worst single measurement at this level

    def row(self) -> str:
        return (
            f"{self.generated:9.1f} {self.avg_measured:14.3f} "
            f"{self.avg_less_background:19.3f} {self.pct_error:8.1f}% "
            f"{self.max_pct_error:10.1f}%"
        )


@dataclass(frozen=True)
class TrafficStatistics:
    """The full Table-2 analogue for one experiment run."""

    background: float  # KB/s at zero generated load
    levels: List[LevelStats]

    @property
    def mean_pct_error(self) -> float:
        """Average of the per-level average errors (the paper's 'about 4%',
        '3.7% on average values', '2.2%')."""
        if not self.levels:
            raise StatsError("no load levels measured")
        return float(np.mean([lv.pct_error for lv in self.levels]))

    @property
    def max_pct_error(self) -> float:
        """Worst individual measurement across all levels."""
        if not self.levels:
            raise StatsError("no load levels measured")
        return float(np.max([lv.max_pct_error for lv in self.levels]))

    def format_table(self, title: str = "Statistics of Measured Traffic Load (KB/s)") -> str:
        header = (
            f"{'Generated':>9} {'Avg Measured':>14} "
            f"{'Avg Less Background':>19} {'% Error':>9} {'Max % Err':>11}"
        )
        lines = [title, header, "-" * len(header)]
        lines.extend(level.row() for level in self.levels)
        lines.append("-" * len(header))
        lines.append(f"background traffic: {self.background:.3f} KB/s")
        lines.append(
            f"mean %err {self.mean_pct_error:.1f}%, max individual %err "
            f"{self.max_pct_error:.1f}%"
        )
        return "\n".join(lines)


def compute_table2(
    measured: np.ndarray,
    generated: np.ndarray,
    stable: Optional[np.ndarray] = None,
    levels: Optional[Sequence[float]] = None,
    min_samples: int = 2,
) -> TrafficStatistics:
    """Per-level accuracy statistics (the paper's Table 2 computation).

    Parameters
    ----------
    measured, generated:
        Aligned series (any rate unit, conventionally KB/s).
    stable:
        Optional boolean mask excluding samples that straddle a load
        transition (the paper averages within steady 60-second steps).
    levels:
        The generated-load levels to report.  Default: every distinct
        non-zero generated value.
    """
    measured = np.asarray(measured, dtype=float)
    generated = np.asarray(generated, dtype=float)
    if measured.shape != generated.shape:
        raise StatsError("measured and generated series must align")
    if stable is None:
        stable = np.ones(measured.shape, dtype=bool)
    else:
        stable = np.asarray(stable, dtype=bool)

    background = background_estimate(measured, generated, stable)

    if levels is None:
        levels = sorted(set(generated[(generated > 0) & stable].tolist()))
    rows: List[LevelStats] = []
    for level in levels:
        mask = (generated == level) & stable
        n = int(mask.sum())
        if n < min_samples:
            raise StatsError(
                f"only {n} stable samples at generated level {level!r} "
                f"(need {min_samples})"
            )
        values = measured[mask]
        avg = float(np.mean(values))
        less_bg = avg - background
        pct = abs(less_bg - level) / level * 100.0
        individual = np.abs((values - background) - level) / level * 100.0
        rows.append(
            LevelStats(
                generated=float(level),
                n_samples=n,
                avg_measured=avg,
                avg_less_background=less_bg,
                pct_error=float(pct),
                max_pct_error=float(np.max(individual)),
            )
        )
    return TrafficStatistics(background=background, levels=rows)
