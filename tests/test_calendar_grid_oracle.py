"""``TradingCalendar.grid`` against a copy of the per-point builder it replaced.

``oracle_grid`` is the earlier implementation verbatim, with
``session_open`` inlined: each grid time is the session open plus
``HALF_HOUR * k``.  Equal datetimes can still differ in zone, so every
case compares the ``isoformat()`` text and the ``tzinfo`` object too.
"""

import datetime as dt
from zoneinfo import ZoneInfo

import pytest

from volseg.calendar import EPOCH, HALF_HOUR, MICROSECOND, TradingCalendar


def oracle_grid(cal: TradingCalendar) -> tuple[dt.datetime, ...]:
    out = []
    for day in cal.days:
        local = dt.datetime.combine(day, cal.open_local, tzinfo=ZoneInfo(cal.tz))
        t0 = local.astimezone(dt.timezone.utc)
        out.extend(t0 + HALF_HOUR * k for k in range(cal.samples_per_day))
    return tuple(out)


def assert_matches_oracle(cal: TradingCalendar) -> None:
    grid, want = cal.grid, oracle_grid(cal)
    assert isinstance(grid, tuple)
    assert grid == want
    assert [t.isoformat() for t in grid] == [t.isoformat() for t in want]
    assert all(t.tzinfo is w.tzinfo for t, w in zip(grid, want))


@pytest.mark.parametrize("samples_per_day", [1, 14, 48])
def test_new_york_across_both_dst_switches(samples_per_day):
    # 2000-04-02 and 2000-10-29: New York enters and leaves daylight time
    cal = TradingCalendar.from_range(
        dt.date(2000, 3, 27), dt.date(2000, 11, 3), samples_per_day=samples_per_day
    )
    opens = cal.grid[::samples_per_day]
    assert [t.hour for t in (opens[0], opens[len(opens) // 2], opens[-1])] == [14, 13, 14]
    assert_matches_oracle(cal)


@pytest.mark.parametrize("samples_per_day", [1, 14, 48])
def test_tokyo_sessions_cross_utc_midnight(samples_per_day):
    # 08:00 in Tokyo is 23:00 UTC of the previous day
    cal = TradingCalendar.from_range(
        dt.date(2007, 12, 20),
        dt.date(2008, 1, 11),
        samples_per_day=samples_per_day,
        open_local=dt.time(8, 0),
        tz="Asia/Tokyo",
    )
    assert cal.grid[0] == dt.datetime(2007, 12, 19, 23, 0, tzinfo=dt.timezone.utc)
    if samples_per_day > 2:
        assert cal.grid[2].date() == cal.days[0]
    assert_matches_oracle(cal)


def test_holidays_and_half_hour_opens():
    cal = TradingCalendar.from_range(
        dt.date(2001, 12, 20),
        dt.date(2002, 1, 10),
        holidays=(dt.date(2001, 12, 25), dt.date(2002, 1, 1)),
        open_local=dt.time(9, 45),
        tz="Asia/Kolkata",
    )
    assert_matches_oracle(cal)


@pytest.mark.parametrize("tz", ["America/New_York", "Europe/London"])
@pytest.mark.parametrize("samples_per_day", [1, 14])
def test_grid_us_takes_the_session_opens_without_building_the_grid(tz, samples_per_day):
    # New York switches on 2000-04-02 and 2000-10-29, London on 2000-03-26 and 2000-10-29
    cal = TradingCalendar.from_range(
        dt.date(2000, 3, 20), dt.date(2000, 11, 3), samples_per_day=samples_per_day, tz=tz
    )
    grid_us = cal.grid_us
    assert "grid" not in vars(cal)
    want = oracle_grid(cal)
    assert grid_us.ravel().tolist() == [(t - EPOCH) // MICROSECOND for t in want]
    assert len({int(u) % 86_400_000_000 for u in grid_us[:, 0]}) == 2  # both offsets of the year
    assert grid_us[:, 0].tolist() == [(t - EPOCH) // MICROSECOND for t in cal.grid[::samples_per_day]]
