"""Unit tests for the Table-2 statistics machinery."""

import numpy as np
import pytest

from repro.analysis.series import combined_stable_mask, stable_mask
from repro.analysis.stats import (
    StatsError,
    background_estimate,
    compute_table2,
)
from repro.simnet.trafficgen import StepSchedule


class TestStableMask:
    def test_excludes_straddling_samples(self):
        schedule = StepSchedule([(10.0, 100.0), (20.0, 0.0)])
        times = np.array([8.0, 10.5, 12.5, 19.5, 21.5, 25.0])
        mask = stable_mask(times, schedule, window=2.0)
        # 10.5 and 21.5 straddle breakpoints (sample covers [t-2, t]).
        assert mask.tolist() == [True, False, True, True, False, True]

    def test_guard_widens_exclusion(self):
        schedule = StepSchedule([(10.0, 100.0)])
        times = np.array([12.5, 13.5])
        assert stable_mask(times, schedule, window=2.0).tolist() == [True, True]
        assert stable_mask(times, schedule, window=2.0, guard=1.0).tolist() == [
            False,
            True,
        ]

    def test_combined_masks_all_schedules(self):
        s1 = StepSchedule([(10.0, 1.0)])
        s2 = StepSchedule([(20.0, 1.0)])
        times = np.array([11.0, 21.0, 30.0])
        mask = combined_stable_mask(times, [s1, s2], window=2.0)
        assert mask.tolist() == [False, False, True]


class TestBackground:
    def test_mean_of_zero_load_samples(self):
        measured = np.array([1.0, 2.0, 101.0, 102.0])
        generated = np.array([0.0, 0.0, 100.0, 100.0])
        assert background_estimate(measured, generated) == pytest.approx(1.5)

    def test_stable_mask_applied(self):
        measured = np.array([1.0, 50.0])
        generated = np.array([0.0, 0.0])
        stable = np.array([True, False])
        assert background_estimate(measured, generated, stable) == 1.0

    def test_no_zero_samples_raises(self):
        with pytest.raises(StatsError):
            background_estimate(np.array([1.0]), np.array([5.0]))


class TestTable2:
    def synthetic(self, bg=1.0, overhead=1.02, noise=0.0, seed=0):
        """A perfect staircase with known background and overhead."""
        rng = np.random.default_rng(seed)
        levels = [0.0] * 10 + [100.0] * 20 + [200.0] * 20 + [0.0] * 10
        generated = np.array(levels)
        measured = generated * overhead + bg + rng.normal(0, noise, len(levels))
        return measured, generated

    def test_recovers_known_overhead(self):
        measured, generated = self.synthetic(bg=1.0, overhead=1.02)
        stats = compute_table2(measured, generated)
        assert stats.background == pytest.approx(1.0)
        for level in stats.levels:
            assert level.pct_error == pytest.approx(2.0, abs=1e-6)
        assert stats.mean_pct_error == pytest.approx(2.0, abs=1e-6)

    def test_levels_enumerated_automatically(self):
        measured, generated = self.synthetic()
        stats = compute_table2(measured, generated)
        assert [lv.generated for lv in stats.levels] == [100.0, 200.0]

    def test_explicit_levels_respected(self):
        measured, generated = self.synthetic()
        stats = compute_table2(measured, generated, levels=[200.0])
        assert len(stats.levels) == 1

    def test_max_error_catches_spikes(self):
        measured, generated = self.synthetic()
        # Inject one spike at a 100-level sample.
        idx = 15
        measured[idx] = 100.0 * 1.25 + 1.0
        stats = compute_table2(measured, generated)
        level100 = stats.levels[0]
        assert level100.max_pct_error == pytest.approx(25.0, abs=0.01)
        assert stats.max_pct_error == pytest.approx(25.0, abs=0.01)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(StatsError):
            compute_table2(np.zeros(3), np.zeros(4))

    def test_insufficient_samples_rejected(self):
        measured = np.array([0.0, 101.0])
        generated = np.array([0.0, 100.0])
        with pytest.raises(StatsError):
            compute_table2(measured, generated)

    def test_format_table_renders(self):
        measured, generated = self.synthetic()
        text = compute_table2(measured, generated).format_table()
        assert "Generated" in text and "background" in text
        assert "100.0" in text

    def test_empty_levels_statistics_raise(self):
        from repro.analysis.stats import TrafficStatistics

        stats = TrafficStatistics(background=0.0, levels=[])
        with pytest.raises(StatsError):
            _ = stats.mean_pct_error
        with pytest.raises(StatsError):
            _ = stats.max_pct_error
