"""``synthetic.write_tick_file`` against a verbatim copy of the per-tick
writer it replaced.

The writer renders its rows from numpy arrays, a block of trading days at
a time; the copy below emits one formatted line per tick.  Both draw from
the same two PCG64 streams in the same order, the copy one scalar at a
time, so their files must be equal byte for byte on every calendar, level
path and seed.  The copy keeps the tick counts and noise settings the
writer no longer offers; files it writes with those must still resample to
their level path.
"""

import datetime as dt
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from volseg import synthetic
from volseg.calendar import HALF_HOUR, TradingCalendar
from volseg.ingest import parse_ticks, resample
from volseg.synthetic import (
    DEMO_SECTORS,
    demo_sector_pieces,
    levels_from_returns,
    make_demo_corpus,
    regime_returns,
    write_tick_file,
)


def oracle_write_tick_file(
    path: str | Path,
    sector: str,
    cal: TradingCalendar,
    levels: np.ndarray,
    seed: int,
    ticks_per_half_hour: int = 3,
    with_noise_rows: bool = True,
) -> None:
    """Render a level path as a raw tick file on the calendar grid.

    One tick lands just before every grid time carrying the exact grid
    level, so resampling recovers ``levels``; extra in-between ticks,
    a pre-open correction row, and a post-close straggler exercise the
    ingestion filters.
    """
    grid = cal.grid
    if len(levels) != len(grid):
        raise ValueError(f"need one level per grid point ({len(grid)}), got {len(levels)}")
    wobble_rng, lag_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    ric = f".DJUS{sector}"
    lines = ["#RIC,Date[G],Time[G],GMT Offset,Type,Price"]

    def emit(ts: dt.datetime, price: float) -> None:
        u = ts.astimezone(dt.timezone.utc)
        lines.append(
            f"{ric},{u.strftime('%m/%d/%Y')},{u.strftime('%H:%M:%S')}."
            f"{u.microsecond // 1000:03d},+0,Index,{price:.4f}"
        )

    idx = 0
    for d, day in enumerate(cal.days):
        day_open = cal.session_open(day)
        if with_noise_rows and d == 0:
            # exchange-correction row hours before the open: must be ignored
            emit(day_open - dt.timedelta(hours=2), float(levels[0]) * 1.5)
        for k in range(cal.samples_per_day):
            g = grid[idx]
            level = float(levels[idx])
            for j in range(ticks_per_half_hour - 1):
                frac = (j + 1) / (ticks_per_half_hour + 1)
                ts = g - dt.timedelta(seconds=1800 * (1 - frac))
                wobble = 1.0 + float(wobble_rng.normal(0, 2e-5))
                emit(ts, max(level * wobble, 1e-6))
            emit(g - dt.timedelta(milliseconds=int(lag_rng.integers(200, 1500))), level)
            idx += 1
        if with_noise_rows:
            # post-close straggler, about 0.1% off: must be ignored
            emit(
                cal.session_open(day) + (cal.samples_per_day - 1) * HALF_HOUR + dt.timedelta(minutes=3),
                float(levels[idx - 1]) * 1.001,
            )
    Path(path).write_text("\n".join(lines) + "\n")


NEW_YORK_START = dt.date(2000, 2, 1)
# holidays that fall on weekdays in the first weeks of each calendar below
HOLIDAYS = (dt.date(2000, 2, 21), dt.date(2007, 3, 14), dt.date(2007, 3, 21))


def calendar(
    start: dt.date,
    n_days: int,
    samples_per_day: int = 14,
    open_local: dt.time = dt.time(9, 30),
    tz: str = "America/New_York",
) -> TradingCalendar:
    """The first ``n_days`` trading days from ``start``, minus ``HOLIDAYS``."""
    end = start + dt.timedelta(days=n_days * 7 // 5 + 14)
    days = TradingCalendar.from_range(start, end, HOLIDAYS).days[:n_days]
    return TradingCalendar(days, samples_per_day, open_local, tz)


def random_levels(n: int, seed: int, start_level: float = 100.0) -> np.ndarray:
    """A level path with calm and wild stretches around ``start_level``."""
    third = (n - 1) // 3
    pieces = [(third, 1e-4, 9e-4), (third, -3e-4, 6e-3), (n - 1 - 2 * third, 2e-5, 2e-3)]
    return levels_from_returns(regime_returns(pieces, seed), start_level)


def assert_same_file(tmp_path: Path, sector, cal, levels, seed, **kwargs) -> None:
    want, got = tmp_path / "oracle.csv", tmp_path / "rewrite.csv"
    oracle_write_tick_file(want, sector, cal, levels, seed, **kwargs)
    write_tick_file(got, sector, cal, levels, seed, **kwargs)
    assert got.read_bytes() == want.read_bytes()


def assert_resamples_to_levels(tmp_path: Path, sector, cal, levels, seed, **kwargs) -> None:
    """The copy's file, at any tick count and noise setting, parses without
    a reject and resamples to ``levels`` as printed to 4 decimals."""
    path = tmp_path / "variant.csv"
    oracle_write_tick_file(path, sector, cal, levels, seed, **kwargs)
    with path.open() as fh:
        ticks, rejects = parse_ticks(fh)
    assert rejects == []
    want = np.array([float(f"{level:.4f}") for level in levels])
    np.testing.assert_array_equal(resample(ticks, cal).values, want)


@pytest.fixture(scope="module")
def paper_calendar() -> TradingCalendar:
    cal = calendar(NEW_YORK_START, 2254)
    assert cal.days[-1].year == 2008  # Feb 2000 - Aug 2008, as in the paper
    cal.grid  # noqa: B018 -- built once, outside every measurement
    return cal


@pytest.mark.parametrize("seed", range(10))
def test_paper_length_new_york_calendar(tmp_path, paper_calendar, seed):
    levels = random_levels(len(paper_calendar), 100 + seed, 50.0 + 25.0 * seed)
    assert_same_file(tmp_path, DEMO_SECTORS[seed], paper_calendar, levels, seed)


# Tokyo's 08:00 open is 23:00 GMT the day before, so a session's ticks
# straddle a GMT date change; Kolkata's offset is not whole hours; the New
# York calendar crosses the 2007 spring-forward.
ZONES = {
    "new_york": (dt.date(2007, 3, 5), dt.time(9, 30), "America/New_York"),
    "tokyo": (dt.date(2000, 2, 7), dt.time(8, 0), "Asia/Tokyo"),
    "kolkata": (dt.date(2000, 2, 7), dt.time(9, 45), "Asia/Kolkata"),
}


@pytest.mark.parametrize("with_noise_rows", [True, False])
@pytest.mark.parametrize("ticks_per_half_hour", [1, 2, 3, 5])
@pytest.mark.parametrize("samples_per_day", [1, 14, 48])
@pytest.mark.parametrize("zone", sorted(ZONES))
def test_zones_samples_and_ticks(tmp_path, zone, samples_per_day, ticks_per_half_hour, with_noise_rows):
    start, open_local, tz = ZONES[zone]
    cal = calendar(start, 25, samples_per_day, open_local, tz)
    assert set(HOLIDAYS).isdisjoint(cal.days) and (cal.days[-1] - cal.days[0]).days > 25
    levels = random_levels(len(cal), samples_per_day * 10 + ticks_per_half_hour)
    if (ticks_per_half_hour, with_noise_rows) == (3, True):  # what the writer writes
        assert_same_file(tmp_path, "EN", cal, levels, 17)
    assert_resamples_to_levels(
        tmp_path, "EN", cal, levels, 17,
        ticks_per_half_hour=ticks_per_half_hour, with_noise_rows=with_noise_rows,
    )


@pytest.mark.parametrize(
    "open_local, ticks_per_half_hour",
    [(dt.time(9, 30), 6), (dt.time(9, 30), 7), (dt.time(9, 30, 59, 999_600), 3), (dt.time(8, 0, 0, 500), 2)],
)
def test_sub_millisecond_tick_times_are_truncated(tmp_path, open_local, ticks_per_half_hour):
    # in-between ticks 1800/7 s apart, or an open off the whole
    # millisecond, put tick times between milliseconds
    cal = calendar(dt.date(2007, 3, 5), 6, open_local=open_local)
    levels = random_levels(len(cal), 2)
    assert_same_file(tmp_path, "HC", cal, levels, 8)
    assert_resamples_to_levels(tmp_path, "HC", cal, levels, 8, ticks_per_half_hour=ticks_per_half_hour)


@pytest.mark.parametrize("with_noise_rows", [True, False])
@pytest.mark.parametrize("samples_per_day", [1, 14])
def test_one_day_calendar(tmp_path, samples_per_day, with_noise_rows):
    cal = calendar(dt.date(2005, 1, 3), 1, samples_per_day)
    assert len(cal.days) == 1
    levels = random_levels(len(cal), 4) if samples_per_day > 1 else np.array([123.456789])
    if with_noise_rows:  # what the writer writes
        assert_same_file(tmp_path, "SH", cal, levels, 1)
    assert_resamples_to_levels(tmp_path, "SH", cal, levels, 1, with_noise_rows=with_noise_rows)


@pytest.mark.parametrize("block_days", [1, 3, 7])
@pytest.mark.parametrize("n_days", [1, 6, 7, 8, 22])
def test_file_does_not_depend_on_the_block_size(tmp_path, monkeypatch, block_days, n_days):
    monkeypatch.setattr(synthetic, "_BLOCK_DAYS", block_days)
    cal = calendar(dt.date(2003, 10, 20), n_days, open_local=dt.time(8, 0), tz="Asia/Tokyo")
    assert_same_file(tmp_path, "TC", cal, random_levels(len(cal), n_days), 5)


def test_levels_at_the_edges_of_the_price_format(tmp_path):
    # the least level that prints as positive, ties of the 4-decimal
    # rounding (100.03125 is exact in binary), and wide prices
    cal = calendar(dt.date(2001, 5, 7), 2, samples_per_day=6)
    levels = [5e-05, 5.5e-05, 100.03125, 100.03135, 0.00015, 1e6, 123456789.98765, 3e15,
              7, 2.5, 1.00005, 99.99995]
    assert len(levels) == len(cal)
    assert_same_file(tmp_path, "FN", cal, levels, 2)


def test_levels_of_other_types(tmp_path):
    cal = calendar(dt.date(2001, 5, 7), 3)
    levels = random_levels(len(cal), 9)
    assert_same_file(tmp_path, "FN", cal, levels.astype(np.float32), 2)
    assert_same_file(tmp_path, "FN", cal, np.round(levels).astype(int).tolist(), 2)


def test_sector_names_are_copied_as_written(tmp_path):
    # a "%" in the code must not be read as a format directive
    cal = calendar(dt.date(2001, 5, 7), 2)
    assert_same_file(tmp_path, "B%sM%%", cal, random_levels(len(cal), 6), 2)


@pytest.mark.parametrize("sector", ["ÉN", "Ωmega", "B\0M"])
def test_sector_names_beyond_ascii(tmp_path, sector):
    # the rows are rendered as UTF-8 bytes; the file keeps its text encoding
    cal = calendar(dt.date(2001, 5, 7), 3)
    assert_same_file(tmp_path, sector, cal, random_levels(len(cal), 7), 4)


@pytest.mark.parametrize("tz, open_local", [("America/New_York", dt.time(9, 30)), ("Asia/Tokyo", dt.time(8, 0))])
def test_calendar_across_the_epoch(tmp_path, tz, open_local):
    # ticks on both sides of 1970-01-01, whose millisecond counts are negative
    cal = calendar(dt.date(1969, 12, 15), 20, open_local=open_local, tz=tz)
    assert cal.days[0].year == 1969 and cal.days[-1].year == 1970
    assert_same_file(tmp_path, "IN", cal, random_levels(len(cal), 12), 6)


def test_level_count_error_is_unchanged(tmp_path):
    cal = calendar(dt.date(2001, 5, 7), 2)
    for writer in (oracle_write_tick_file, write_tick_file):
        with pytest.raises(ValueError, match=r"^need one level per grid point \(28\), got 27$"):
            writer(tmp_path / "x.csv", "BM", cal, np.full(27, 100.0), 1)


def demo_calendar(n_days: int, start: dt.date = dt.date(2006, 1, 2)) -> TradingCalendar:
    """The calendar ``make_demo_corpus`` builds for ``n_days`` from ``start``."""
    end = start + dt.timedelta(days=int(n_days * 7 / 5) + 14)
    holiday = start + dt.timedelta(days=14)
    while holiday.weekday() >= 5:
        holiday += dt.timedelta(days=1)
    return TradingCalendar(TradingCalendar.from_range(start, end, (holiday,)).days[:n_days])


@pytest.mark.parametrize(
    "n_sectors, n_days, seed", [(len(DEMO_SECTORS), 120, 7), (2, 2254, 3)], ids=["defaults", "paper"]
)
def test_demo_corpus_file_by_file(tmp_path, n_sectors, n_days, seed):
    if n_days == 120:
        paths = make_demo_corpus(tmp_path / "corpus")  # defaults: 10 sectors, 120 days, seed 7
    else:
        paths = make_demo_corpus(
            tmp_path / "corpus", sectors=DEMO_SECTORS[:n_sectors], n_days=n_days, seed=seed
        )
    cal = demo_calendar(n_days)
    assert sorted(paths) == sorted([*DEMO_SECTORS[:n_sectors], "events", "holidays"])
    for i, sector in enumerate(DEMO_SECTORS[:n_sectors]):
        levels = levels_from_returns(regime_returns(demo_sector_pieces(i, n_days), seed + i), 100.0 + 10.0 * i)
        want = tmp_path / f"{sector}.oracle.csv"
        oracle_write_tick_file(want, sector, cal, levels, seed * 1000 + i)
        assert paths[sector].read_bytes() == want.read_bytes(), sector


@pytest.mark.parametrize("n_days", [120, 2254], ids=["demo", "paper"])
def test_peak_memory_is_no_higher_than_the_per_tick_writer(tmp_path, paper_calendar, n_days):
    # peaks measured with the writer's 32-day blocks: 1.08 MB (per-tick)
    # and 0.41 MB (blocks) at 120 days; 19.9 and 0.74 MB at 2,254 days.
    # Traced, the per-tick writer runs about nine times slower, so at 2,254
    # days it runs untraced and the bound is the size of the file written,
    # 4.8 MB, which the per-tick writer's own peak exceeds four times.
    cal = paper_calendar if n_days == 2254 else demo_calendar(n_days)
    cal.grid  # noqa: B018 -- built outside the measurement
    levels = random_levels(len(cal), 21)
    traced = {"oracle": oracle_write_tick_file, "rewrite": write_tick_file}
    if n_days == 2254:
        traced.pop("oracle")(tmp_path / "oracle.csv", "BM", cal, levels, 11)
    peaks = {}
    tracemalloc.start()
    try:
        for name, writer in traced.items():
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            writer(tmp_path / f"{name}.csv", "BM", cal, levels, 11)
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (tmp_path / "rewrite.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    bound = peaks.get("oracle", (tmp_path / "rewrite.csv").stat().st_size)
    assert peaks["rewrite"] <= bound, (peaks, bound)


# ---------------------------------------------------------------------------
# the row renderer against per-tick formatting

DAY_US = 86_400_000_000
EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)


def oracle_rows(ric: str, t_us, prices) -> str:
    """One row per tick from ``strftime`` and ``%``-formatting.  ``%Y`` is
    not zero-padded below year 1000 on every platform, so the year is
    formatted as four digits here."""
    rows = []
    for t, price in zip(t_us, prices):
        u = EPOCH + dt.timedelta(microseconds=int(t))
        rows.append(
            f"{ric},{u.strftime('%m/%d/')}{u.year:04d},{u.strftime('%H:%M:%S')}."
            f"{u.microsecond // 1000:03d},+0,Index,{'%.4f' % price}\n"
        )
    return "".join(rows)


def rendered_rows(ric: str, t_us, prices) -> str:
    t_us = np.asarray(t_us, dtype=np.int64)
    days = t_us // 1000 // 86_400_000
    first_day = int(days.min())
    dates = synthetic._date_words(first_day, int(days.max()))
    return synthetic._tick_rows(f"{ric},".encode(), first_day, dates, t_us, np.asarray(prices, dtype=np.float64))


def assert_same_rows(t_us, prices, ric: str = ".DJUSBM") -> None:
    got = rendered_rows(ric, t_us, prices).split("\n")
    want = oracle_rows(ric, t_us, prices).split("\n")
    assert len(got) == len(want)
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert not wrong, wrong[:3]  # rendered, then formatted


def with_neighbours(values) -> np.ndarray:
    """Each value and the doubles just below and above it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def some_times(n: int, seed: int = 0) -> np.ndarray:
    return 1_136_214_000_000_000 + np.random.default_rng(seed).integers(0, 400 * DAY_US, n)


def test_prices_at_exact_ties_of_every_width():
    # j/32 for odd j is a tie of the 4-decimal rounding (0.03125 -> 312.5
    # ten-thousandths), exact in binary: "%.4f" rounds it half to even
    whole = [0, 7, 42, 314, 2718, 31415, 271828, 3141592, 27182818]
    ties = [w + j / 32 for w in whole for j in range(1, 32, 2)]
    prices = with_neighbours(ties)
    assert_same_rows(some_times(len(prices)), prices)


def test_prices_that_round_up_a_digit():
    # 9.99995 through 99999.99995 lie within a rounding step of a power of ten
    nines = [10.0**k - 5e-5 for k in range(0, 7)] + [10.0**k - 1e-4 for k in range(0, 7)]
    prices = with_neighbours(nines + [10.0**k for k in range(0, 7)])
    assert_same_rows(some_times(len(prices)), prices)


def test_prices_at_the_edge_of_the_array_range():
    # 999999.99995 rounds to 1000000.0000, the first price of seven integer
    # digits, which "%.4f" formats itself
    edge = [999_999.9999, 999_999.99994, 999_999.99995, 999_999.99996, 1e6, 1e6 + 0.5, 1e7,
            123_456_789.98765, 3e15, 1e300, np.inf, -np.inf, np.nan]
    prices = with_neighbours(edge)
    assert_same_rows(some_times(len(prices)), prices)


def test_prices_at_the_floor_and_below():
    # the writer floors wobbled prices at 1e-6; the least level is 5e-05
    small = [1e-6, 4.9999e-5, 5e-5, 5.00001e-5, 1.5e-4, 0.0, -0.0, -1e-6, -5e-5, -1.0, -123.45675]
    prices = with_neighbours(small)
    assert_same_rows(some_times(len(prices)), prices)


@pytest.mark.parametrize("seed", range(3))
def test_random_prices_and_runs_of_formatted_ones(seed):
    # prices over many magnitudes, with ties and out-of-range prices at
    # the start, at the end and side by side
    rng = np.random.default_rng(seed)
    prices = 10 ** rng.uniform(-6, 8, 5000)
    prices[rng.integers(0, 5000, 300)] = rng.integers(0, 10**6, 300) + rng.integers(0, 16, 300) * 2 / 32 + 1 / 32
    prices[[0, 1, 2, -1]] = [0.03125, 2e6, np.nan, 1.96875]
    assert_same_rows(some_times(len(prices), seed), prices)


def test_times_around_midnight():
    # the last and first microseconds and milliseconds of UTC days, as in
    # Tokyo sessions, which open at 23:00 GMT the day before
    days = np.array([12_000, 12_001, 13_880, 14_600]) * DAY_US
    offsets = np.array([-1000, -999, -1, 0, 1, 999, 1000, 59_999_999, 3_599_999_999])
    t_us = (days[:, None] + offsets).ravel()
    assert_same_rows(t_us, np.full(len(t_us), 101.25))


def test_times_before_1970_and_below_year_1000():
    first = (EPOCH.replace(year=1) - EPOCH) // dt.timedelta(microseconds=1)  # 0001-01-01
    year_999 = (EPOCH.replace(year=999, month=12, day=31) - EPOCH) // dt.timedelta(microseconds=1)
    fixed = [first, first + 1, first + DAY_US - 1, year_999, year_999 + DAY_US - 1, year_999 + DAY_US,
             -DAY_US - 1, -1001, -1000, -999, -1, 0]
    rng = np.random.default_rng(4)
    t_us = np.concatenate([fixed, rng.integers(first, 0, 400), rng.integers(first, -62_000 * DAY_US, 100)])
    assert_same_rows(t_us, np.full(len(t_us), 7.5))
