import datetime as dt
import io
import math
import tracemalloc

import numpy as np
import pytest

from conftest import weekday_calendar
from volseg.calendar import TradingCalendar, load_holidays
from volseg.ingest import (
    HalfHourSeries,
    TickColumns,
    log_returns,
    parse_ticks,
    resample,
    sector_from_ric,
    series_from_csv,
    series_from_json,
    series_to_csv,
    series_to_json,
)
from volseg.synthetic import make_demo_corpus

UTC = dt.timezone.utc


def epoch_us(ts: dt.datetime) -> int:
    return (ts - dt.datetime(1970, 1, 1, tzinfo=UTC)) // dt.timedelta(microseconds=1)


def ticks(*rows: tuple[str, float], ric: str = ".DJUSBM") -> TickColumns:
    """Tick columns from (ISO time in UTC, price) rows."""
    stamps = [epoch_us(dt.datetime.fromisoformat(ts).replace(tzinfo=UTC)) for ts, _ in rows]
    return TickColumns(ric, stamps, [price for _, price in rows])


# ---------------------------------------------------------------------------
# calendar


class TestCalendar:
    def test_winter_grid_covers_1430_to_2100_gmt(self):
        cal = TradingCalendar.from_range(dt.date(2000, 2, 14), dt.date(2000, 2, 14))
        times = [t.strftime("%H:%M") for t in cal.grid]
        assert times[0] == "14:30"
        assert times[-1] == "21:00"
        assert len(times) == 14

    def test_summer_grid_shifts_one_hour(self):
        cal = TradingCalendar.from_range(dt.date(2000, 7, 10), dt.date(2000, 7, 10))
        assert cal.grid[0].strftime("%H:%M") == "13:30"
        assert cal.grid[-1].strftime("%H:%M") == "20:00"

    def test_one_offset_per_trading_day(self):
        # daylight saving began on Sunday 2000-04-02: the 09:30 open moves
        # from 14:30 to 13:30 GMT, and each session keeps one offset
        cal = TradingCalendar.from_range(dt.date(2000, 3, 27), dt.date(2000, 4, 7))
        for i, day in enumerate(cal.days):
            hours = 5 if day < dt.date(2000, 4, 2) else 4
            local_open = dt.datetime.combine(day, dt.time(9, 30), tzinfo=dt.timezone.utc)
            assert cal.session_open(day) == local_open + dt.timedelta(hours=hours)
            session = cal.grid[14 * i : 14 * (i + 1)]
            assert session == tuple(cal.session_open(day) + dt.timedelta(minutes=30 * k) for k in range(14))

    def test_grid_length_is_samples_times_days(self):
        cal = TradingCalendar.from_range(dt.date(2001, 3, 1), dt.date(2001, 3, 31))
        assert len(cal.grid) == 14 * len(cal.days)

    def test_close_derived_from_open_and_count(self):
        cal = weekday_calendar(dt.date(2004, 1, 5), 3)
        # 16:00 New York time in winter
        assert cal.grid[13] == dt.datetime(2004, 1, 5, 21, 0, tzinfo=dt.timezone.utc)
        short = weekday_calendar(dt.date(2004, 1, 5), 3, samples_per_day=4)
        assert short.grid[3] == dt.datetime(2004, 1, 5, 16, 0, tzinfo=dt.timezone.utc)

    def test_grid_us_is_the_grid_a_session_per_row(self):
        # 2006 spans both daylight-saving switches
        cal = TradingCalendar.from_range(dt.date(2006, 3, 20), dt.date(2006, 11, 10))
        assert cal.grid_us.dtype == np.int64
        assert cal.grid_us.shape == (len(cal.days), cal.samples_per_day)
        assert cal.grid_us[:, 0].tolist() == [epoch_us(cal.session_open(day)) for day in cal.days]
        assert cal.grid_us.ravel().tolist() == [epoch_us(t) for t in cal.grid]
        assert not cal.grid_us.flags.writeable

    @pytest.mark.parametrize(
        "samples_per_day",
        [14.0, True, np.float64(14.0), np.bool_(True), "14"],
        ids=["float", "bool", "numpy-float", "numpy-bool", "str"],
    )
    def test_samples_per_day_other_than_an_integer_is_rejected(self, samples_per_day):
        with pytest.raises(ValueError, match="^samples_per_day must be an integer, not "):
            TradingCalendar((dt.date(2004, 1, 5),), samples_per_day)

    @pytest.mark.parametrize("samples_per_day", [np.int64(4), np.int32(4), np.uint8(4)], ids=["int64", "int32", "uint8"])
    def test_numpy_integer_samples_per_day_is_accepted(self, samples_per_day):
        days = (dt.date(2004, 1, 5), dt.date(2004, 1, 6))
        cal = TradingCalendar(days, samples_per_day)
        assert len(cal) == 8
        assert cal.grid == TradingCalendar(days, 4).grid

    def test_holidays_excluded(self):
        holiday = dt.date(2000, 7, 4)
        cal = TradingCalendar.from_range(dt.date(2000, 7, 3), dt.date(2000, 7, 7), (holiday,))
        assert holiday not in cal.days

    def test_weekends_excluded(self):
        cal = TradingCalendar.from_range(dt.date(2000, 2, 11), dt.date(2000, 2, 14))
        assert [d.weekday() for d in cal.days] == [4, 0]

    def test_holiday_file_roundtrip(self, tmp_path):
        p = tmp_path / "holidays.txt"
        p.write_text("2000-07-04\n\n2000-09-04\n")
        assert load_holidays(p) == (dt.date(2000, 7, 4), dt.date(2000, 9, 4))

    def test_trading_day_arithmetic(self):
        cal = weekday_calendar(dt.date(2007, 8, 13), 10)
        assert cal.trading_days_between(dt.date(2007, 8, 17), dt.date(2007, 8, 21)) == 2


# ---------------------------------------------------------------------------
# parsing


HEADER = "#RIC,Date[G],Time[G],GMT Offset,Type,Price"


class TestParseTicks:
    def test_sample_row(self):
        records, rejects = parse_ticks(
            io.StringIO(HEADER + "\n.DJUSBM,02/14/2000,14:30:29.829,+0,Index,149.93\n")
        )
        # the offset and type fields are checked but not stored: the row
        # is accepted with no reject
        assert rejects == []
        assert len(records) == 1
        assert records.ric == ".DJUSBM"
        assert records.t_us[0] == epoch_us(dt.datetime(2000, 2, 14, 14, 30, 29, 829000, tzinfo=UTC))
        assert records.price[0] == 149.93

    def test_header_emits_no_record(self):
        records, rejects = parse_ticks(io.StringIO(HEADER + "\n"))
        assert len(records) == 0 and rejects == []

    def test_unparseable_price_rejected_with_line_number(self):
        records, rejects = parse_ticks(
            io.StringIO(HEADER + "\n.DJUSBM,02/14/2000,14:30:29.829,+0,Index,abc\n")
        )
        assert len(records) == 0
        (rej,) = rejects
        assert rej.line == 2
        assert "price" in rej.reason

    def test_unparseable_date_rejected(self):
        _, rejects = parse_ticks(
            io.StringIO(HEADER + "\n.DJUSBM,14/02/2000,14:30:29.829,+0,Index,149.93\n")
        )
        assert len(rejects) == 1 and "date" in rejects[0].reason

    def test_wrong_field_count_rejected(self):
        _, rejects = parse_ticks(io.StringIO(HEADER + "\n.DJUSBM,02/14/2000,14:30:29.829\n"))
        assert len(rejects) == 1 and "6 fields" in rejects[0].reason

    def test_unparseable_gmt_offset_rejected(self):
        records, rejects = parse_ticks(
            io.StringIO(HEADER + "\n.DJUSBM,02/14/2000,14:30:29.829,+x,Index,149.93\n")
        )
        assert len(records) == 0
        (rej,) = rejects
        assert rej.line == 2
        assert rej.reason == "unparseable GMT offset '+x'"

    def test_non_positive_price_rejected(self):
        _, rejects = parse_ticks(
            io.StringIO(HEADER + "\n.DJUSBM,02/14/2000,14:30:29.829,+0,Index,-5\n")
        )
        assert len(rejects) == 1

    def test_rows_kept_in_file_order(self):
        text = HEADER + "\n" + "\n".join(
            f".DJUSBM,02/14/2000,14:3{i}:00.000,+0,Index,10{i}" for i in range(5)
        )
        records, _ = parse_ticks(io.StringIO(text))
        assert list(records.price) == [100, 101, 102, 103, 104]

    def test_parse_memory_is_bounded_by_the_columns(self, tmp_path):
        # a paper-scale tick file (2,254 days, about 4.8 MB) four times over,
        # read from disk: beyond the accepted columns and their per-block
        # parts (16 B per row each) the parse may hold only about one block.
        # The excess measured 0.10-0.27 MB on seeds 1-6; a parse that holds
        # the whole text exceeds 137 MB.
        bound = 4_000_000
        text = make_demo_corpus(tmp_path, sectors=("BM",), n_days=2254, seed=5)["BM"].read_text()
        path = tmp_path / "four.csv"
        path.write_text(text * 4)
        rows = 4 * (text.count("\n") - 1)  # no noise rows are rejected
        del text
        tracemalloc.start()
        try:
            with open(path) as fh:
                records, rejects = parse_ticks(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == rows and rejects == []
        assert peak - 32 * rows < bound

    def test_sector_from_ric(self):
        assert sector_from_ric(".DJUSBM") == "BM"
        assert sector_from_ric(".DJI") == "DJI"


# ---------------------------------------------------------------------------
# resampling


def one_day_cal() -> TradingCalendar:
    return TradingCalendar.from_range(dt.date(2000, 2, 14), dt.date(2000, 2, 14))


class TestResample:
    def test_open_value_is_last_tick_before_open(self):
        series = resample(
            ticks(
                ("2000-02-14T11:54:20.434", 149.92),  # correction hours before open
                ("2000-02-14T14:25:50.259", 149.92),
                ("2000-02-14T14:30:29.829", 149.93),
            ),
            one_day_cal(),
        )
        assert series.values[0] == 149.92
        assert series.grid[0].strftime("%H:%M") == "14:30"

    def test_early_correction_does_not_supply_open(self):
        # only a record 2.5 hours before the open exists until mid-session:
        # the open sample must not take the correction price
        series = resample(
            ticks(("2000-02-14T12:00:00.000", 999.0), ("2000-02-14T14:40:00.000", 150.0)),
            one_day_cal(),
        )
        assert series.values[0] == 150.0  # backfilled from first usable tick
        assert series.values[1] == 150.0

    def test_tick_exactly_at_grid_time_counts_for_next_sample(self):
        series = resample(
            ticks(("2000-02-14T14:29:00.000", 100.0), ("2000-02-14T15:00:00.000", 200.0)),
            one_day_cal(),
        )
        # 15:00 sample: strictly-before rule keeps the 14:29 price
        assert series.values[1] == 100.0
        assert series.values[2] == 200.0

    def test_post_close_tick_excluded_everywhere(self):
        series = resample(
            ticks(
                ("2000-02-14T14:29:00.000", 150.0),
                ("2000-02-14T21:03:00.000", 150.15),  # ~0.1% off, after close
            ),
            one_day_cal(),
        )
        assert np.all(series.values == 150.0)

    def test_gap_carries_previous_grid_value_forward(self):
        series = resample(
            ticks(("2000-02-14T14:29:00.000", 150.0), ("2000-02-14T16:10:00.000", 151.0)),
            one_day_cal(),
        )
        # 15:00, 15:30, 16:00 have no new tick -> carry 150.0
        assert list(series.values[:5]) == [150.0, 150.0, 150.0, 150.0, 151.0]

    def test_day_with_no_ticks_warns_and_carries(self, caplog):
        cal = TradingCalendar.from_range(dt.date(2000, 2, 14), dt.date(2000, 2, 15))
        with caplog.at_level("WARNING"):
            series = resample(ticks(("2000-02-14T14:29:00.000", 150.0)), cal)
        assert np.all(series.values == 150.0)
        assert series.n == 28
        assert any("no qualifying ticks" in r.message for r in caplog.records)

    def test_empty_tick_set_is_error(self):
        with pytest.raises(ValueError, match="empty tick set"):
            resample(ticks(), one_day_cal())

    def test_mixed_instruments_rejected(self):
        # one tick column set holds one instrument, so the parse refuses the mix
        text = (
            HEADER
            + "\n.DJUSBM,02/14/2000,14:29:00.000,+0,Index,1"
            + "\n.DJUSCY,02/14/2000,14:31:00.000,+0,Index,2\n"
        )
        with pytest.raises(ValueError, match="mixed instrument"):
            parse_ticks(io.StringIO(text))

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(5)
        cal = weekday_calendar(dt.date(2000, 2, 14), 3)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 1e-3, len(cal.grid))))
        stamps = [epoch_us(g - dt.timedelta(seconds=1)) for g in cal.grid]
        first = resample(TickColumns(".DJUSBM", stamps, prices), cal)
        again = resample(
            TickColumns(".DJUSBM", [epoch_us(g - dt.timedelta(seconds=1)) for g in first.grid], first.values),
            cal,
        )
        assert np.array_equal(first.values, again.values)


# ---------------------------------------------------------------------------
# log returns


def series_of(values, start=dt.date(2000, 2, 14)) -> HalfHourSeries:
    cal = weekday_calendar(start, max(1, math.ceil(len(values) / 14)))
    return HalfHourSeries("BM", cal.grid[: len(values)], np.asarray(values, dtype=float))


class TestLogReturns:
    def test_constant_series(self):
        out = log_returns(series_of([100.0, 100.0]))
        assert list(out) == [0.0]

    def test_single_step_matches_direct_log(self):
        out = log_returns(series_of([100.0, 110.0]))
        assert out[0] == pytest.approx(math.log(110.0 / 100.0), abs=1e-15)
        assert out[0] == pytest.approx(0.0953102, abs=1e-7)

    def test_sample_prices(self):
        out = log_returns(series_of([149.92, 149.93, 149.92]))
        expect = math.log(149.93 / 149.92)
        assert out == pytest.approx([expect, -expect], abs=1e-12)
        assert out[0] == pytest.approx(6.670e-5, abs=5e-9)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            log_returns(series_of([100.0]))

    def test_non_positive_level_names_timestamp(self):
        cal = weekday_calendar(dt.date(2000, 2, 14), 1)
        with pytest.raises(ValueError) as err:
            HalfHourSeries("BM", cal.grid[:3], np.array([100.0, -1.0, 101.0]))
        assert cal.grid[1].isoformat() in str(err.value)

    @pytest.mark.parametrize("at", [1, 7, 13])
    @pytest.mark.parametrize(
        "step", [dt.timedelta(0), -dt.timedelta(microseconds=1)], ids=["equal", "decreasing"]
    )
    def test_grid_must_strictly_increase(self, step, at):
        grid = list(weekday_calendar(dt.date(2000, 2, 14), 1).grid)
        grid[at] = grid[at - 1] + step
        with pytest.raises(ValueError, match="^grid timestamps must be strictly increasing$"):
            HalfHourSeries("BM", tuple(grid), np.full(len(grid), 100.0))

    def test_roundtrip_reconstructs_levels(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 200))
            values = 50.0 * np.exp(np.cumsum(rng.normal(0, 5e-3, n)))
            s = series_of(values)
            x = log_returns(s)
            rebuilt = s.values[0] * np.exp(np.cumsum(np.concatenate([[0.0], x])))
            assert np.allclose(rebuilt, s.values, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# file formats


class TestSeriesFiles:
    def test_csv_roundtrip(self, tmp_path, rng):
        cal = weekday_calendar(dt.date(2003, 6, 2), 2)
        s = HalfHourSeries("UT", cal.grid, 90 + rng.random(len(cal.grid)))
        series_to_csv(s, tmp_path / "UT.csv")
        back = series_from_csv(tmp_path / "UT.csv")
        assert back.sector == "UT"
        assert back.grid == s.grid
        assert np.array_equal(back.values, s.values)

    def test_json_roundtrip(self, tmp_path, rng):
        cal = weekday_calendar(dt.date(2003, 6, 2), 2)
        s = HalfHourSeries("EN", cal.grid, 90 + rng.random(len(cal.grid)))
        series_to_json(s, tmp_path / "EN.json")
        back = series_from_json(tmp_path / "EN.json")
        assert back.sector == "EN"
        assert back.grid == s.grid
        assert np.array_equal(back.values, s.values)
