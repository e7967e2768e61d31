"""Unit tests for the embedded time-series storage engine (repro.tsdb)."""

import math

import numpy as np
import pytest

from repro.core.history import HISTORY_FIELDS, HISTORY_PREDICTORS, _report_row
from repro.tsdb import (
    BitReader,
    BitWriter,
    Retention,
    Series,
    TSDB,
    TsdbError,
    decode_column,
    decode_timestamps,
    encode_column,
    encode_timestamps,
    window_aggregate,
)
from repro.tsdb.bits import zigzag_decode, zigzag_encode
from repro.tsdb.chunk import HeadChunk
from repro.tsdb.downsample import DownsampledSeries
from tests.costs import fig4_prefix


def bits_equal(a, b) -> bool:
    """Bit-pattern equality (NaN-safe, distinguishes -0.0 from 0.0)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(a.view(np.uint64) == b.view(np.uint64))
    )


# ----------------------------------------------------------------------
# Bit packing
# ----------------------------------------------------------------------
class TestBits:
    def test_writer_reader_round_trip(self):
        w = BitWriter()
        w.write_bit(1)
        w.write_bits(0b1011, 4)
        w.write_bits(0xDEADBEEF, 32)
        w.write_bit(0)
        data = w.to_bytes()
        r = BitReader(data)
        assert r.read_bit() == 1
        assert r.read_bits(4) == 0b1011
        assert r.read_bits(32) == 0xDEADBEEF
        assert r.read_bit() == 0

    def test_reader_raises_past_end(self):
        r = BitReader(BitWriter().to_bytes())
        with pytest.raises(EOFError):
            r.read_bit()

    def test_zigzag_round_trip(self):
        for v in (0, 1, -1, 63, -64, 2**40, -(2**40), 2**70, -(2**70)):
            zz = zigzag_encode(v)
            assert zz >= 0
            assert zigzag_decode(zz) == v


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------
class TestTimestampCodec:
    def test_regular_grid_compresses_to_about_one_bit(self):
        times = [2.5 + 2.0 * i for i in range(256)]
        data = encode_timestamps(times)
        assert bits_equal(decode_timestamps(data, len(times)), times)
        # 64-bit first sample + ~1 bit per subsequent steady-delta sample.
        assert len(data) < 64

    def test_jittered_times_round_trip_via_escape(self):
        rng = np.random.default_rng(7)
        times = np.cumsum(rng.random(100))  # full-entropy, inexact on the grid
        data = encode_timestamps(times)
        assert bits_equal(decode_timestamps(data, len(times)), times)

    def test_mixed_exact_and_inexact(self):
        times = [0.0, 2.0, 4.0, 4.0 + 1e-9, 6.0, 8.0]
        data = encode_timestamps(times)
        assert bits_equal(decode_timestamps(data, len(times)), times)


class TestValueCodec:
    def test_special_floats_survive_bit_exactly(self):
        values = [
            0.0, -0.0, math.nan, math.inf, -math.inf,
            5e-324, -5e-324, 1.5, 1.5, 1e308,
        ]
        data = encode_column(values)
        assert bits_equal(decode_column(data, len(values)), values)

    def test_constant_stream_is_one_bit_per_repeat(self):
        values = [1234.5] * 512
        data = encode_column(values)
        assert bits_equal(decode_column(data, len(values)), values)
        assert len(data) < 8 + 512 // 8 + 2

    def test_random_stream_round_trips(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
        data = encode_column(values)
        assert bits_equal(decode_column(data, len(values)), values)

    def test_perfect_predictions_cost_one_bit_each(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(256)
        data = encode_column(values, predictions=values)
        assert len(data) <= 256 // 8 + 1
        assert bits_equal(
            decode_column(data, len(values), predictions=values), values
        )

    def test_wrong_predictions_still_lossless(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(64)
        predictions = values + rng.standard_normal(64) * 1e-6
        data = encode_column(values, predictions=predictions)
        assert bits_equal(
            decode_column(data, len(values), predictions=predictions), values
        )


# ----------------------------------------------------------------------
# Chunks
# ----------------------------------------------------------------------
class TestChunks:
    def test_seal_and_decode_bit_identical(self):
        head = HeadChunk(("a", "b"))
        rng = np.random.default_rng(1)
        times = np.cumsum(rng.random(50) + 0.5)
        cols = rng.standard_normal((2, 50))
        for i in range(50):
            head.append(float(times[i]), (float(cols[0, i]), float(cols[1, i])))
        sealed = head.seal()
        assert sealed.count == 50
        assert sealed.min_time == times[0] and sealed.max_time == times[-1]
        dt, dv = sealed.arrays()
        assert bits_equal(dt, times)
        assert bits_equal(dv["a"], cols[0])
        assert bits_equal(dv["b"], cols[1])

    def test_predicted_column_needs_predictors_to_decode(self):
        predictors = {"total": lambda cols: cols["x"] + 1.0}
        head = HeadChunk(("x", "total"))
        for i in range(8):
            head.append(float(i), (float(i) * 2, float(i) * 2 + 1.0))
        sealed = head.seal(predictors)
        assert sealed.predicted == {"total"}
        with pytest.raises(ValueError, match="predicted columns"):
            sealed.arrays()
        _, values = sealed.arrays(predictors)
        assert bits_equal(values["total"], [i * 2 + 1.0 for i in range(8)])


# ----------------------------------------------------------------------
# Series
# ----------------------------------------------------------------------
class TestSeries:
    def make(self, n=100, chunk_size=16):
        series = Series("s", ("v", "w"), chunk_size=chunk_size)
        for i in range(n):
            series.append(float(i), (float(i) * 10, float(i) * -1))
        return series

    def test_append_validates_shape_and_order(self):
        series = Series("s", ("v",), chunk_size=4)
        series.append(1.0, (5.0,))
        with pytest.raises(ValueError, match="wants 1 values"):
            series.append(2.0, (1.0, 2.0))
        with pytest.raises(ValueError, match="out-of-order"):
            series.append(0.5, (1.0,))
        series.append(1.0, (6.0,))  # equal time is allowed

    def test_sealing_and_len(self):
        series = self.make(n=100, chunk_size=16)
        assert len(series) == 100
        assert len(series.chunks) == 6
        assert len(series.head) == 4
        assert series.min_time == 0.0 and series.max_time == 99.0

    def test_range_scan_trims_boundary_chunks(self):
        series = self.make(n=100, chunk_size=16)
        times, values = series.arrays(t_start=10.0, t_end=20.0)
        assert list(times) == [float(i) for i in range(10, 20)]
        assert list(values["v"]) == [i * 10.0 for i in range(10, 20)]

    def test_full_scan_bit_identical(self):
        series = self.make(n=100, chunk_size=16)
        times, values = series.arrays()
        assert bits_equal(times, np.arange(100.0))
        assert bits_equal(values["w"], -np.arange(100.0))

    def test_unknown_field_raises(self):
        series = self.make(n=4)
        with pytest.raises(KeyError, match="no field"):
            series.arrays(["nope"])

    def test_latest_without_decoding(self):
        series = self.make(n=10)
        assert series.latest() == (9.0, (90.0, -9.0))
        assert Series("e", ("v",)).latest() is None

    def test_flush_seals_head(self):
        series = self.make(n=10, chunk_size=16)
        assert len(series.chunks) == 0
        series.flush()
        assert len(series.chunks) == 1 and len(series.head) == 0
        assert bits_equal(series.arrays()[0], np.arange(10.0))

    def test_drop_chunks_before(self):
        series = self.make(n=100, chunk_size=16)
        dropped = series.drop_chunks_before(40.0)
        assert sum(c.count for c in dropped) == 32  # two whole chunks < 40
        assert series.samples_dropped == 32
        assert series.min_time == 32.0
        assert len(series) == 68

    def test_compression_beats_raw_on_smooth_data(self):
        series = Series("s", ("v",), chunk_size=64)
        for i in range(256):
            series.append(2.5 + 2.0 * i, (1000.0 + (i % 4),))
        assert series.nbytes < series.raw_nbytes / 4

    def test_the_monitors_stream_compresses_four_fold_bit_identically(self):
        """The history of the Figure-4 run's first 120 s, replayed into
        sealed chunks, takes at most a quarter of its raw float64 bytes
        and decodes to the very bits the monitor stored."""
        scenario, label = fig4_prefix()
        history = scenario.path_series(label)
        replay = Series(
            "fig4-replay", HISTORY_FIELDS, chunk_size=64, predictors=HISTORY_PREDICTORS
        )
        for report in history.reports:
            replay.append(report.time, _report_row(report))
        replay.flush()  # seal the tail: the ratio is compression only
        assert replay.raw_nbytes >= 4 * replay.nbytes
        times, columns = replay.arrays()
        assert bits_equal(times, history.times())
        assert bits_equal(columns["used_bps"], history.used())
        assert bits_equal(columns["available_bps"], history.available())


# ----------------------------------------------------------------------
# Downsampling
# ----------------------------------------------------------------------
class TestDownsample:
    def test_window_aggregate_all_aggs(self):
        times = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 25.0])
        values = np.array([1.0, 3.0, 2.0, 8.0, 4.0, 7.0])
        starts, mins = window_aggregate(times, values, 10.0, "min")
        assert list(starts) == [0.0, 10.0, 20.0]
        assert list(mins) == [1.0, 4.0, 7.0]
        assert list(window_aggregate(times, values, 10.0, "max")[1]) == [3.0, 8.0, 7.0]
        assert list(window_aggregate(times, values, 10.0, "mean")[1]) == [2.0, 6.0, 7.0]
        assert list(window_aggregate(times, values, 10.0, "last")[1]) == [2.0, 4.0, 7.0]

    def test_window_aggregate_validates(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            window_aggregate(np.arange(3.0), np.arange(3.0), 1.0, "median")
        with pytest.raises(ValueError, match="positive"):
            window_aggregate(np.arange(3.0), np.arange(3.0), 0.0)

    def test_absorbed_chunks_merge_windows_exactly(self):
        down = DownsampledSeries(("v",), window=10.0)
        head = HeadChunk(("v",))
        for i in range(10):  # t = 0..9 -> one window
            head.append(float(i), (float(i),))
        down.absorb(head.seal())
        head = HeadChunk(("v",))
        for i in range(10, 25):  # t = 10..24 -> windows 10 and 20
            head.append(float(i), (float(i),))
        down.absorb(head.seal())
        assert down.samples_absorbed == 25
        starts, means = down.arrays("v", "mean")
        assert list(starts) == [0.0, 10.0, 20.0]
        assert list(means) == [4.5, 14.5, 22.0]
        starts, lasts = down.arrays("v", "last", t_start=10.0)
        assert list(starts) == [10.0, 20.0]
        assert list(lasts) == [19.0, 24.0]


# ----------------------------------------------------------------------
# Database layer
# ----------------------------------------------------------------------
class TestTSDB:
    def test_series_autocreate_get_and_errors(self):
        db = TSDB(("v",))
        db.append("a", 1.0, (2.0,))
        assert "a" in db and "b" not in db
        assert db.labels() == ["a"]
        with pytest.raises(TsdbError, match="no series"):
            db.get("b")
        assert db.latest("a") == (1.0, (2.0,))

    def test_retention_validation(self):
        with pytest.raises(ValueError):
            Retention(0.0)
        with pytest.raises(ValueError):
            Retention(10.0, downsample_window_s=-1.0)
        with pytest.raises(ValueError, match="at least one value field"):
            TSDB(())

    def test_retention_drops_and_downsamples(self):
        db = TSDB(("v",), retention=Retention(20.0, downsample_window_s=10.0))
        db.chunk_size = 8
        for i in range(100):
            db.append("s", float(i), (float(i),))
        stats = db.stats()
        assert stats.samples_dropped > 0
        assert stats.samples + stats.samples_dropped == 100
        # Recent window is intact and exact.
        times, values = db.range("s", t_start=90.0)
        assert list(times) == [float(i) for i in range(90, 100)]
        # Dropped samples survive as coarse windows.
        down = db.downsampled("s")
        assert down is not None
        assert down.samples_absorbed == stats.samples_dropped
        starts, maxima = down.arrays("v", "max")
        assert list(starts)[0] == 0.0 and maxima[0] == 9.0

    def test_aggregate_query(self):
        db = TSDB(("v",))
        db.chunk_size = 8
        for i in range(40):
            db.append("s", float(i), (float(i),))
        starts, means = db.aggregate("s", "v", window=10.0, agg="mean")
        assert list(starts) == [0.0, 10.0, 20.0, 30.0]
        assert list(means) == [4.5, 14.5, 24.5, 34.5]

    def test_stats_and_compression_ratio(self):
        db = TSDB(("v",))
        db.chunk_size = 32
        for i in range(128):
            db.append("s", 2.5 + 2.0 * i, (42.0,))
        db.flush()
        stats = db.stats()
        assert stats.series == 1
        assert stats.samples == 128
        assert stats.head_samples == 0
        assert stats.raw_nbytes == 128 * 2 * 8
        assert stats.compression_ratio > 4.0

    def test_predictors_thread_through_retention(self):
        predictors = {"b": lambda cols: cols["a"] * 2.0}
        db = TSDB(
            ("a", "b"), predictors=predictors,
            retention=Retention(20.0, downsample_window_s=10.0),
        )
        db.chunk_size = 8
        for i in range(60):
            db.append("s", float(i), (float(i), float(i) * 2.0))
        down = db.downsampled("s")
        assert down is not None and down.samples_absorbed > 0
        times, values = db.range("s", t_start=50.0)
        assert bits_equal(values["b"], times * 2.0)
