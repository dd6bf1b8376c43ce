"""The two array-built text paths against the per-item calls they replace.

``ingest._render_values`` must give ``repr`` of every value once its NUL
pads are deleted, whether it takes the fixed-point path (a shortest
decimal in [1e-4, 1e9) with at most 6 fractional digits) or falls back to
``repr``.  ``TradingCalendar.grid_iso`` must hold ``isoformat()`` of every
grid time, on calendars whose UTC open moves with daylight saving, whose
sessions cross UTC midnight, whose sessions hold 1 or 27 samples, and
whose open carries microseconds.  A series on a grid no calendar made
must be written with ``isoformat()`` of every time too.  The series
writers render a chunk of rows at a time, so whole files are compared
against the row-by-row oracles at the chunk edges and with ``repr``
fallbacks in the first, a middle and the last chunk.
"""

import datetime as dt
import math

from zoneinfo import ZoneInfo

import numpy as np
import pytest

from conftest import weekday_calendar
from test_series_io_oracle import WRITERS
from volseg import ingest
from volseg.calendar import TradingCalendar
from volseg.ingest import HalfHourSeries, TickColumns, resample, series_to_csv, series_to_json


def assert_reprs(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    text = [row.tobytes().replace(b"\0", b"").decode() for row in ingest._render_values(values)]
    assert text == list(map(repr, values.tolist()))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("digits", range(8))
def test_rounded_values_over_every_magnitude(seed, digits):
    rng = np.random.default_rng([seed, digits])
    n = 20_000
    values = rng.random(n) * 10.0 ** rng.integers(-6, 11, n)
    assert_reprs(np.round(values, digits))


def test_all_fixed_digit_counts_are_reached():
    # every count of integer (1-9) and fractional (1-6) digits
    values = [float(f"{'9' * i}.{'0' * (f - 1)}7") for i in range(1, 10) for f in range(1, 7)]
    values += [float(f"{'1' + '0' * (i - 1)}.{'0' * (f - 1)}1") for i in range(1, 10) for f in range(1, 7)]
    assert_reprs(values)


EDGES = [
    1e-4,
    math.nextafter(1e-4, 0.0),  # just below the fixed domain: exponent form
    math.nextafter(1e-4, 1.0),  # inside it, but with 20 fractional digits
    0.000123,
    0.0001999999,  # 7 fractional digits
    1.0,
    2.0,
    100.0,
    123456789.0,
    999999999.0,
    999999999.999999,
    math.nextafter(1e9, 0.0),
    1e9,
    1e15,
    1e16,
    float("inf"),
    float("-inf"),
    float("nan"),
    1e300,
    5e-324,
    2.2250738585072014e-308,
    0.0,
    -0.0,
    -149.92,
    0.1 + 0.2,
    1 / 3,
]


@pytest.mark.parametrize("value", EDGES, ids=repr)
def test_edge_values(value):
    assert_reprs([value])
    assert_reprs([149.92, value, 0.5])


def test_neighbours_of_four_decimal_prices():
    rng = np.random.default_rng(11)
    prices = np.round(rng.uniform(0.5, 50_000.0, 10_000), 4)
    assert_reprs(prices)
    assert_reprs(np.nextafter(prices, np.inf))
    assert_reprs(np.nextafter(prices, 0.0))


def test_empty_and_mixed():
    assert_reprs([])
    rng = np.random.default_rng(5)
    values = np.round(rng.uniform(1.0, 1e4, 1000), 4)
    values[::7] = rng.random(len(values[::7])) * 10.0 ** rng.integers(-320, 300, len(values[::7]))
    assert_reprs(values)


# ---------------------------------------------------------------------------
# calendar text


def new_york_2007() -> TradingCalendar:
    # daylight saving starts on 2007-03-11 and ends on 2007-11-04
    holidays = [dt.date(2007, 5, 28), dt.date(2007, 7, 4), dt.date(2007, 9, 3), dt.date(2007, 11, 22)]
    return TradingCalendar.from_range(dt.date(2007, 2, 20), dt.date(2007, 11, 30), holidays)


def tokyo(samples_per_day: int = 14) -> TradingCalendar:
    # 08:00 in Tokyo is 23:00 UTC of the day before
    return TradingCalendar.from_range(
        dt.date(2007, 12, 17), dt.date(2008, 1, 18), (dt.date(2008, 1, 1),), samples_per_day,
        open_local=dt.time(8, 0), tz="Asia/Tokyo",
    )


CALENDARS = {
    "new-york-dst": new_york_2007,
    "tokyo": tokyo,
    "new-york-1": lambda: TradingCalendar.from_range(dt.date(2007, 3, 1), dt.date(2007, 3, 30), samples_per_day=1),
    "new-york-27": lambda: TradingCalendar.from_range(dt.date(2007, 3, 1), dt.date(2007, 3, 30), samples_per_day=27),
    "tokyo-1": lambda: tokyo(1),
    "tokyo-27": lambda: tokyo(27),
    "microsecond-open": lambda: TradingCalendar.from_range(
        dt.date(2007, 10, 29), dt.date(2007, 11, 9), open_local=dt.time(9, 30, 0, 250)
    ),
}


@pytest.mark.parametrize("name", list(CALENDARS))
def test_grid_iso_equals_isoformat(name):
    cal = CALENDARS[name]()
    assert cal.grid_iso.dtype == np.uint8 and not cal.grid_iso.flags.writeable
    assert [row.tobytes().decode() for row in cal.grid_iso] == [t.isoformat() for t in cal.grid]


def test_calendars_cover_what_they_claim():
    ny = new_york_2007()
    assert len({t.hour for t in ny.grid[:: ny.samples_per_day]}) == 2
    for cal in (tokyo(), CALENDARS["new-york-27"]()):
        spd = cal.samples_per_day
        assert all(a.date() != b.date() for a, b in zip(cal.grid[::spd], cal.grid[spd - 1 :: spd]))


def test_resampled_series_writes_the_calendar_text(tmp_path):
    cal = tokyo()
    t_us = (cal.grid_us - 1).ravel()
    prices = np.round(np.linspace(12000.0, 13000.0, len(t_us)), 4)
    series = resample(TickColumns(".N225", t_us, prices), cal)
    assert series.grid_iso is cal.grid_iso
    series_to_csv(series, tmp_path / "s.csv")
    series_to_json(series, tmp_path / "s.json")
    rows = [f"{t.isoformat()},{v!r}" for t, v in zip(cal.grid, series.values.tolist())]
    assert (tmp_path / "s.csv").read_text() == "\n".join(["timestamp,value", *rows]) + "\n"
    assert ingest.series_from_json(tmp_path / "s.json").grid == cal.grid


def _hand_built(tz: dt.tzinfo | None, microsecond: int = 0) -> tuple[dt.datetime, ...]:
    # 14 half hours a day for 14 days from 22:30, so each day's times cross midnight
    t0 = dt.datetime(2008, 3, 3, 22, 30, 0, microsecond, tzinfo=tz)
    return tuple(t0 + dt.timedelta(days=d, minutes=30 * k) for d in range(14) for k in range(14))


def _mixed_offsets() -> tuple[dt.datetime, ...]:
    zones = [dt.timezone.utc, dt.timezone(dt.timedelta(hours=5, minutes=30)), dt.timezone(dt.timedelta(hours=-8))]
    return tuple(t.astimezone(zones[i % 3]) for i, t in enumerate(_hand_built(dt.timezone.utc)))


HAND_BUILT_GRIDS = {
    "naive": lambda: _hand_built(None),
    "utc": lambda: _hand_built(dt.timezone.utc),
    "tokyo-local": lambda: _hand_built(ZoneInfo("Asia/Tokyo")),
    "microsecond": lambda: _hand_built(dt.timezone.utc, 250),
    "mixed-offsets": _mixed_offsets,
}


@pytest.mark.parametrize("name", list(HAND_BUILT_GRIDS))
def test_hand_built_grid_writes_isoformat(name, tmp_path):
    grid = HAND_BUILT_GRIDS[name]()
    series = HalfHourSeries("X", grid, np.linspace(100.0, 101.0, len(grid)))
    assert series.grid_iso is None
    series_to_csv(series, tmp_path / "s.csv")
    rows = [f"{t.isoformat()},{v!r}" for t, v in zip(grid, series.values.tolist())]
    assert (tmp_path / "s.csv").read_text() == "\n".join(["timestamp,value", *rows]) + "\n"


# ---------------------------------------------------------------------------
# chunked writers


CHUNK = ingest._CHUNK_ROWS


def long_calendar() -> TradingCalendar:
    # more than 2 chunks of grid times
    return weekday_calendar(dt.date(2001, 1, 2), (2 * CHUNK) // 14 + 2)


def mixed_width_grid(n: int) -> tuple[dt.datetime, ...]:
    # every third time without microseconds, so its text is 7 bytes shorter
    t0 = dt.datetime(2001, 1, 2, 14, 30, tzinfo=dt.timezone.utc)
    return tuple(t0 + dt.timedelta(minutes=30 * i, microseconds=250 * (i % 3 != 0)) for i in range(n))


def assert_writes_as_oracle(fmt: str, series: HalfHourSeries, tmp_path) -> None:
    writer, oracle = WRITERS[fmt]
    writer(series, tmp_path / f"fast.{fmt}")
    oracle(series, tmp_path / f"oracle.{fmt}")
    assert (tmp_path / f"fast.{fmt}").read_bytes() == (tmp_path / f"oracle.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", list(WRITERS))
@pytest.mark.parametrize("text", ["calendar", "per-time"])
@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK], ids=["chunk-1", "chunk", "chunk+1", "2chunk"])
def test_chunk_edges(n, text, fmt, tmp_path):
    values = np.round(np.linspace(90.0, 130.0, n), 4)
    if text == "calendar":
        cal = long_calendar()
        series = HalfHourSeries("X", cal.grid[:n], values, cal.grid_iso[:n])
    else:
        series = HalfHourSeries("X", mixed_width_grid(n), values)
    assert_writes_as_oracle(fmt, series, tmp_path)


@pytest.mark.parametrize("fmt", list(WRITERS))
def test_repr_fallback_in_first_middle_and_last_chunk(fmt, tmp_path):
    cal = long_calendar()
    n = 2 * CHUNK + 5
    values = np.round(np.linspace(90.0, 130.0, n), 4)
    values[[3, CHUNK + 7, n - 1]] = [1 / 3, 1.7976931348623157e308, 5e-324]
    series = HalfHourSeries("X", cal.grid[:n], values, cal.grid_iso[:n])
    assert_writes_as_oracle(fmt, series, tmp_path)


def test_longest_reprs_fill_the_value_width():
    longest = [-1.7976931348623157e308, -2.2250738585072014e-308, -1.2345678901234567e-100]
    assert max(map(len, map(repr, longest))) == ingest._VALUE_WIDTH
    assert_reprs(longest)
