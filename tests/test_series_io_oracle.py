"""The series writers against copies of the row-by-row writers they replaced.

``oracle_series_to_csv`` and ``oracle_series_to_json`` are verbatim copies
of the earlier ``csv.writer`` / ``json.dumps`` implementations.  Every case
compares whole files byte for byte, on calendar grids and on grids no
calendar makes: naive, fixed non-UTC offsets, microseconds, empty and
one-point series.  Each JSON file is also read back by ``series_from_json``
and by ``oracle_series_from_json``, a copy of the earlier per-item reader,
and the two grids and value bits must agree.
"""

import csv
import datetime as dt
import json
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from conftest import weekday_calendar
from volseg.calendar import TradingCalendar
from volseg.ingest import HalfHourSeries, series_from_json, series_to_csv, series_to_json


def oracle_series_to_csv(series: HalfHourSeries, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "value"])
        for ts, v in zip(series.grid, series.values):
            writer.writerow([ts.isoformat(), repr(float(v))])


def oracle_series_to_json(series: HalfHourSeries, path: str | Path) -> None:
    payload = {
        "sector": series.sector,
        "timestamps": [ts.isoformat() for ts in series.grid],
        "values": [repr(float(v)) for v in series.values],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def oracle_series_from_json(path: str | Path) -> HalfHourSeries:
    payload = json.loads(Path(path).read_text())
    grid = tuple(dt.datetime.fromisoformat(t) for t in payload["timestamps"])
    values = np.array([float(v) for v in payload["values"]])
    return HalfHourSeries(payload["sector"], grid, values)


WRITERS = {
    "csv": (series_to_csv, oracle_series_to_csv),
    "json": (series_to_json, oracle_series_to_json),
}

ZONES = {
    "naive": None,
    "utc": dt.timezone.utc,
    "plus-0530": dt.timezone(dt.timedelta(hours=5, minutes=30)),
    "minus-0330": dt.timezone(-dt.timedelta(hours=3, minutes=30)),
    "plus-010007": dt.timezone(dt.timedelta(hours=1, seconds=7)),
    "new-york": ZoneInfo("America/New_York"),
}

SPECIAL_VALUES = [
    5e-324,  # smallest subnormal
    2.2250738585072014e-308 / 3,  # subnormal
    2.2250738585072014e-308,  # smallest normal
    1e-300,
    0.1,
    1 / 3,
    1.0,
    123.45,
    1e16,
    1e22,
    1e300,
    1.7976931348623157e308,
    float("inf"),
]


def random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive floats spread over every decade from subnormals to 1e300,
    with the special values mixed in."""
    values = rng.random(n) * 10.0 ** rng.integers(-323, 301, n).astype(float)
    values[values <= 0.0] = 5e-324
    k = min(n, len(SPECIAL_VALUES))
    values[rng.choice(n, k, replace=False)] = rng.choice(SPECIAL_VALUES, k, replace=False)
    return values


def random_grid(rng: np.random.Generator, n: int, tz: dt.tzinfo | None, micro: bool) -> tuple:
    """n strictly increasing times in ``tz``; steps of whole seconds, or of
    seconds and microseconds when ``micro``."""
    start = dt.datetime(int(rng.integers(1990, 2030)), 3, 1, tzinfo=tz)
    if micro:
        start = start.replace(microsecond=int(rng.integers(1, 1_000_000)))
    steps = rng.integers(1, 4 * 86_400, n)
    offsets = np.cumsum(steps) - steps[0]
    extra = rng.integers(0, 1_000_000, n) if micro else np.zeros(n, dtype=np.int64)
    return tuple(
        start + dt.timedelta(seconds=int(s), microseconds=int(u)) for s, u in zip(offsets, extra)
    )


def assert_same_bytes(series: HalfHourSeries, tmp_path: Path) -> None:
    for fmt, (writer, oracle) in WRITERS.items():
        new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
        writer(series, new)
        oracle(series, old)
        assert new.read_bytes() == old.read_bytes(), fmt
    written = tmp_path / "new.json"
    back, want = series_from_json(written), oracle_series_from_json(written)
    assert back.sector == want.sector == series.sector
    assert back.grid == want.grid
    assert [t.utcoffset() for t in back.grid] == [t.utcoffset() for t in want.grid]
    assert back.values.dtype == want.values.dtype
    assert back.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_dst_crossing_calendar_grid(seed, tmp_path):
    rng = np.random.default_rng(seed)
    # 2000-04-02: New York switches to daylight time between these days
    cal = weekday_calendar(dt.date(2000, 3, 20), 15)
    assert len({t.utcoffset() for t in cal.grid}) == 1
    assert len({t.hour for t in cal.grid[:: cal.samples_per_day]}) == 2
    values = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, len(cal.grid))))
    assert_same_bytes(HalfHourSeries("BM", cal.grid, values), tmp_path)


@pytest.mark.parametrize("micro", [False, True], ids=["seconds", "microseconds"])
@pytest.mark.parametrize("zone", list(ZONES))
def test_random_grids(zone, micro, tmp_path):
    rng = np.random.default_rng([list(ZONES).index(zone), int(micro)])
    for n in (2, 3, 57, 400):
        grid = random_grid(rng, n, ZONES[zone], micro)
        assert_same_bytes(HalfHourSeries("CY", grid, random_values(rng, n)), tmp_path)


@pytest.mark.parametrize("zone", list(ZONES))
def test_one_point_series(zone, tmp_path):
    rng = np.random.default_rng(7)
    for value in [*SPECIAL_VALUES, *random_values(rng, 8)]:
        grid = random_grid(rng, 1, ZONES[zone], micro=True)
        assert_same_bytes(HalfHourSeries("UT", grid, [value]), tmp_path)


def test_empty_series(tmp_path):
    assert_same_bytes(HalfHourSeries("EN", (), np.array([])), tmp_path)


@pytest.mark.parametrize(
    "sector",
    [
        'B"M',
        "back\\slash",
        "new\nline\ttab",
        "ctrl\x01\x1f",
        "non-ascii \u00c9 \u00fc \u6307\u6570",
        "line\u2028sep",
        "emoji \U0001f4c8",
        "",
    ],
)
def test_sector_names_needing_escapes(sector, tmp_path):
    cal = weekday_calendar(dt.date(2004, 10, 25), 2)
    values = np.linspace(90.0, 91.0, len(cal.grid))
    assert_same_bytes(HalfHourSeries(sector, cal.grid, values), tmp_path)
    assert_same_bytes(HalfHourSeries(sector, (), np.array([])), tmp_path)


@pytest.mark.parametrize("fmt", list(WRITERS))
def test_in_place_value_edit_reaches_the_next_write(fmt, tmp_path):
    writer, oracle = WRITERS[fmt]
    cal = weekday_calendar(dt.date(2006, 5, 1), 3)
    series = HalfHourSeries("HC", cal.grid, np.linspace(50.0, 60.0, len(cal.grid)))
    writer(series, tmp_path / f"first.{fmt}")
    series.values[5] = 1e300
    series.values[-1] = float("inf")
    writer(series, tmp_path / f"second.{fmt}")
    oracle(series, tmp_path / f"oracle.{fmt}")
    second = (tmp_path / f"second.{fmt}").read_bytes()
    assert second != (tmp_path / f"first.{fmt}").read_bytes()
    assert second == (tmp_path / f"oracle.{fmt}").read_bytes()


@pytest.mark.parametrize("local", [False, True], ids=["utc", "tokyo-local"])
def test_tokyo_calendar_grid(local, tmp_path):
    # sessions open at 08:00 in Tokyo, 23:00 UTC of the previous day, so
    # the UTC date changes inside every session
    cal = TradingCalendar.from_range(
        dt.date(2008, 3, 3), dt.date(2008, 3, 21), open_local=dt.time(8, 0), tz="Asia/Tokyo"
    )
    grid = cal.grid
    assert grid[0].date() != grid[cal.samples_per_day - 1].date()
    if local:
        grid = tuple(t.astimezone(ZoneInfo("Asia/Tokyo")) for t in grid)
    values = np.linspace(12000.0, 13000.0, len(grid))
    assert_same_bytes(HalfHourSeries("TK", grid, values), tmp_path)


def test_equal_instants_in_other_zones_written_alternately(tmp_path):
    # the two grids compare and hash equal, but their text differs
    utc = weekday_calendar(dt.date(2003, 6, 2), 4).grid
    ist = tuple(t.astimezone(dt.timezone(dt.timedelta(hours=5, minutes=30))) for t in utc)
    assert utc == ist and hash(utc) == hash(ist)
    values = np.linspace(70.0, 75.0, len(utc))
    for _ in range(2):
        for sector, grid in (("UT", utc), ("IS", ist)):
            assert_same_bytes(HalfHourSeries(sector, grid, values), tmp_path)


def test_series_sharing_one_grid_tuple(tmp_path):
    grid = weekday_calendar(dt.date(2005, 10, 24), 5).grid
    first = HalfHourSeries("BM", grid, np.linspace(100.0, 101.0, len(grid)))
    second = HalfHourSeries("CY", grid, np.linspace(202.0, 200.5, len(grid)))
    for series in (first, second, first):
        assert_same_bytes(series, tmp_path)
