"""Evaluation machinery: the paper's accuracy statistics and series tools."""

from repro.analysis.stats import (
    LevelStats,
    TrafficStatistics,
    background_estimate,
    compute_table2,
)
from repro.analysis.series import stable_mask

__all__ = [
    "LevelStats",
    "TrafficStatistics",
    "background_estimate",
    "compute_table2",
    "stable_mask",
]
