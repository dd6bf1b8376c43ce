"""Seeded generators for fixtures, calibration harnesses, and demos.

All randomness flows through one integer seed, so every artifact built
here is reproducible byte for byte.  A tick file's noise comes from two
streams spawned from its seed, one for the in-between ticks' price
wobbles and one for the last tick's lag before each grid time, each
drawn a block of trading days at a time; the levels a resampler reads
back do not depend on either stream.

Run ``python -m volseg.synthetic OUTDIR`` to create a small demo corpus
(tick files for a handful of sectors, a holiday file, a rate-event
file) suitable for exercising the command-line pipeline.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

from .calendar import (
    DEFAULT_SAMPLES_PER_DAY, MICROSECOND, TradingCalendar, _digits, _field, _iso_dates, _two_digits, _words
)

DEMO_SECTORS = ("BM", "CY", "EN", "FN", "HC", "IN", "NC", "TC", "TL", "UT")
# The least level whose tick price prints as positive at 4 decimals.
_MIN_LEVEL = 5e-05

# Trading days rendered per block: 1,824 rows at 14 samples and 3 ticks per
# half hour.  The writer's tracemalloc peak was 0.47 MB at 120 days and
# 0.51 MB at 2,254 days, against 1.08 and 19.9 MB for a writer that
# formats one row per tick.
_BLOCK_DAYS = 32

_DAY_MS = 86_400_000
# Pads a field's dropped leading zeros and is deleted once a block is
# rendered: no UTF-8 text, so no sector code, holds this byte.
_PAD = 0xFF
# A positive price p is rendered from m = rint(p * 1e4) when m is below
# _PRICE_LIMIT and p * 1e4 is not a half-integer.  The product is rounded
# once, and rounding is monotonic, so it stays on the side of every
# half-integer (exact below 2**52) that the exact product is on: m is the
# exact product rounded, as "%.4f" rounds it.  "%.4f" formats every other
# price itself.
_PRICE_LIMIT = 1e10


_K = np.arange(1000)[:, None]
_THREE_DIGITS = _words(_digits(3))
_FOUR_DIGITS = _words(_digits(4))
# a price's thousands, then its units below 1000: _LOW_GROUP[g] pads the
# leading zeros but the units digit, _LOW_GROUP[1000 + g] is all digits
_HIGH_GROUP = _words(np.where(_K < [100, 10, 1], _PAD, _digits(3)).astype(np.uint8))
_LOW_GROUP = np.concatenate(
    [_words(np.where(_K < [100, 10, 0], _PAD, _digits(3)).astype(np.uint8)), _THREE_DIGITS]
)


def regime_returns(
    pieces: list[tuple[int, float, float]], seed: int
) -> np.ndarray:
    """Concatenate Gaussian stretches given as (length, mean, stdev)."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(mu, sigma, n) for n, mu, sigma in pieces])


def levels_from_returns(x: np.ndarray, start_level: float = 100.0) -> np.ndarray:
    """Level path whose log returns reproduce ``x`` exactly."""
    levels = np.empty(len(x) + 1)
    levels[0] = start_level
    np.exp(np.log(start_level) + np.cumsum(x), out=levels[1:])
    return levels


def write_tick_file(
    path: str | Path,
    sector: str,
    cal: TradingCalendar,
    levels: np.ndarray,
    seed: int,
) -> None:
    """Render a level path as a raw tick file on the calendar grid.

    One tick lands just before every grid time carrying the exact grid
    level, so resampling recovers ``levels``; two in-between ticks per
    half hour, a pre-open correction row, and a post-close straggler
    each session exercise the ingestion filters.  Every level must be
    finite and at least 0.00005, the least that prints as a positive
    4-decimal price.

    The file is rendered ``_BLOCK_DAYS`` trading days at a time, each
    block's rows as bytes filled in from digit tables and a date table of
    the file's UTC days (``_tick_rows``).  The writer's tracemalloc peak
    was 0.47 MB at 120 days and 0.51 MB at 2,254 days.  The
    random draws come from two streams spawned from ``seed`` by
    ``np.random.SeedSequence(seed).spawn(2)``: the first gives the
    in-between ticks' wobbles, in grid order and then tick order, and the
    second gives each grid time's last-tick lag.  Each block takes its
    draws from both streams in one call each, and each stream is read in
    order, so the file does not depend on the block size.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if len(levels) != len(cal):
        raise ValueError(f"need one level per grid point ({len(cal)}), got {len(levels)}")
    bad = np.flatnonzero(~(np.isfinite(levels) & (levels >= _MIN_LEVEL)))
    if len(bad):
        raise ValueError(
            f"level {bad[0]} is {float(levels[bad[0]])!r}: every level must be finite and "
            f"at least {_MIN_LEVEL!r} to print as a positive 4-decimal price"
        )
    wobble_rng, lag_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    # the two in-between ticks precede their grid time by 3/4 and 1/2 of a half hour
    lead_us = np.array([1350, 900], dtype=np.int64) * 1_000_000
    levels = levels.reshape(cal.grid_us.shape)
    head = f".DJUS{sector},".encode()
    correction_us = cal.grid_us[:1, 0] - dt.timedelta(hours=2) // MICROSECOND
    straggler_us = dt.timedelta(minutes=3) // MICROSECOND
    # every UTC day from the correction row to the last straggler
    first_day = int(correction_us[0]) // 1000 // _DAY_MS
    last_day = (int(cal.grid_us[-1, -1]) + straggler_us) // 1000 // _DAY_MS
    dates = _date_words(first_day, last_day)

    with Path(path).open("w") as fh:
        fh.write("#RIC,Date[G],Time[G],GMT Offset,Type,Price\n")
        # exchange-correction row hours before the open: must be ignored
        fh.write(_tick_rows(head, first_day, dates, correction_us, levels[0, :1] * 1.5))
        for d in range(0, len(cal.days), _BLOCK_DAYS):
            block = slice(d, d + _BLOCK_DAYS)
            grid_us = cal.grid_us[block]
            level = levels[block]
            wobble = wobble_rng.normal(0, 2e-5, grid_us.shape + lead_us.shape)
            lag_ms = lag_rng.integers(200, 1500, grid_us.shape)
            t_us = np.empty(grid_us.shape + (len(lead_us) + 1,), dtype=np.int64)
            t_us[..., :-1] = grid_us[..., None] - lead_us
            t_us[..., -1] = grid_us - 1000 * lag_ms
            price = np.empty(t_us.shape)
            price[..., :-1] = np.maximum(level[..., None] * (1.0 + wobble), 1e-6)
            price[..., -1] = level
            t_us = t_us.reshape(len(grid_us), -1)
            price = price.reshape(len(grid_us), -1)
            # post-close straggler, about 0.1% off: must be ignored
            t_us = np.column_stack((t_us, grid_us[:, -1] + straggler_us))
            price = np.column_stack((price, level[:, -1] * 1.001))
            fh.write(_tick_rows(head, first_day, dates, t_us.ravel(), price.ravel()))


def _date_words(first_day: int, last_day: int) -> np.ndarray:
    """``MM/DD/YYYY,`` of every UTC day from ``first_day`` to ``last_day``
    (days since the epoch), one void item each; years below 1000 keep four
    digits."""
    chars = _iso_dates(first_day, last_day)
    text = np.empty((len(chars), 11), dtype=np.uint8)
    text[:, :10] = chars[:, [5, 6, 4, 8, 9, 4, 0, 1, 2, 3]]
    text[:, [2, 5]] = ord("/")
    text[:, 10] = ord(",")
    return _words(text)


def _tick_rows(head: bytes, first_day: int, dates: np.ndarray, t_us: np.ndarray, price: np.ndarray) -> str:
    """One row per tick: ``head``, the tick's ``MM/DD/YYYY,HH:MM:SS.mmm``
    time (the milliseconds truncated), ``,+0,Index,`` and its ``%.4f``
    price.  ``dates[k]`` is the date text of day ``first_day + k``.

    The rows are filled in as fixed-width bytes from the digit tables, the
    price's leading zeros as ``_PAD`` bytes, which are then deleted."""
    template = head + bytes(11) + b"00:00:00.000,+0,Index," + bytes(6) + b".0000\n"
    rows = np.empty((len(t_us), len(template)), dtype=np.uint8)
    rows[:] = np.frombuffer(template, dtype=np.uint8)
    day, ms = np.divmod(t_us // 1000, _DAY_MS)
    col = len(head)
    _field(rows, col, 11)[...] = dates[day - first_day]
    sec, ms = np.divmod(ms, 1000)
    minute, s = np.divmod(sec, 60)
    h, minute = np.divmod(minute, 60)
    col += 11
    two_digits = _two_digits()
    _field(rows, col, 2)[...] = two_digits[h]
    _field(rows, col + 3, 2)[...] = two_digits[minute]
    _field(rows, col + 6, 2)[...] = two_digits[s]
    _field(rows, col + 9, 3)[...] = _THREE_DIGITS[ms]
    col += 22
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = price * 1e4
        m = np.rint(scaled)
        fast = (price > 0) & (m < _PRICE_LIMIT) & (np.abs(scaled - m) != 0.5)
    units, frac = np.divmod(np.where(fast, m, 0).astype(np.int64), 10_000)
    high, low = np.divmod(units, 1000)
    _field(rows, col, 3)[...] = _HIGH_GROUP[high]
    _field(rows, col + 3, 3)[...] = _LOW_GROUP[low + 1000 * (high > 0)]
    _field(rows, col + 7, 4)[...] = _FOUR_DIGITS[frac]
    pad = bytes([_PAD])
    parts = []
    start = 0
    slow = np.flatnonzero(~fast)
    for i, v in zip(slow.tolist(), price[slow].tolist()):
        parts += rows[start:i].tobytes().translate(None, pad), rows[i, :col].tobytes(), b"%.4f\n" % v
        start = i + 1
    parts.append(rows[start:].tobytes().translate(None, pad))
    return b"".join(parts).decode()


def demo_sector_pieces(sector_index: int, n_days: int) -> list[tuple[int, float, float]]:
    """A quiet/shock/quiet/shock/quiet regime layout, staggered by sector."""
    samples_per_day = DEFAULT_SAMPLES_PER_DAY
    n = n_days * samples_per_day - 1
    base = 9e-4 * (1.0 + 0.05 * sector_index)
    shock1 = int(n * 0.30) + sector_index * samples_per_day // 2
    shock2 = int(n * 0.65) + sector_index * samples_per_day // 2
    w1 = 6 * samples_per_day
    w2 = 4 * samples_per_day
    pieces = [
        (shock1, 1e-5, base),
        (w1, -2e-4, base * 5.0),
        (shock2 - shock1 - w1, 1e-5, base),
        (w2, -2e-4, base * 3.5),
        (n - shock2 - w2, 2e-5, base * 0.9),
    ]
    return [(max(p[0], samples_per_day), p[1], p[2]) for p in pieces]


def _demo_min_days(n_sectors: int) -> int:
    """Fewest days on which the layouts of the first ``n_sectors`` demo
    sectors tile the grid exactly, with no stretch lengthened to a day."""
    n_days = 1
    while any(
        sum(p[0] for p in demo_sector_pieces(i, n_days)) != n_days * DEFAULT_SAMPLES_PER_DAY - 1
        for i in range(n_sectors)
    ):
        n_days += 1
    return n_days


def make_demo_corpus(
    outdir: str | Path,
    sectors: tuple[str, ...] = DEMO_SECTORS,
    n_days: int = 120,
    seed: int = 7,
) -> dict[str, Path]:
    """Write tick files (under ticks/), a holiday file, and a rate-event file."""
    need = _demo_min_days(len(sectors))
    if n_days < need:
        raise ValueError(f"a demo corpus of {len(sectors)} sectors needs at least {need} days, got {n_days}")
    outdir = Path(outdir)
    tick_dir = outdir / "ticks"
    tick_dir.mkdir(parents=True, exist_ok=True)
    start = dt.date(2006, 1, 2)  # a Monday, so the holiday two weeks on is a weekday
    end = start + dt.timedelta(days=int(n_days * 7 / 5) + 14)
    holidays = (start + dt.timedelta(days=14),)
    cal = TradingCalendar.from_range(start, end, holidays)
    days = cal.days[:n_days]
    cal = TradingCalendar(days, cal.samples_per_day, cal.open_local, cal.tz)

    paths: dict[str, Path] = {}
    for i, sector in enumerate(sectors):
        x = regime_returns(demo_sector_pieces(i, n_days), seed + i)
        levels = levels_from_returns(x, 100.0 + 10.0 * i)
        path = tick_dir / f"{sector}.csv"
        write_tick_file(path, sector, cal, levels, seed=seed * 1000 + i)
        paths[sector] = path

    holiday_path = outdir / "holidays.txt"
    holiday_path.write_text("\n".join(h.isoformat() for h in holidays) + "\n")
    paths["holidays"] = holiday_path

    mid = days[len(days) // 3]
    later = days[2 * len(days) // 3]
    events_path = outdir / "rate_events.csv"
    events_path.write_text(
        "date,change,new_rate\n"
        f"{mid.isoformat()},-0.5,4.5\n"
        f"{later.isoformat()},-0.25,4.25\n"
    )
    paths["events"] = events_path
    return paths


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Write a demo tick-data corpus")
    parser.add_argument("outdir")
    parser.add_argument("--sectors", type=int, default=4, help="number of sectors (1-10)")
    parser.add_argument("--days", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if not 1 <= args.sectors <= len(DEMO_SECTORS):
        parser.error(f"--sectors must be between 1 and {len(DEMO_SECTORS)}, got {args.sectors}")
    need = _demo_min_days(args.sectors)
    if args.days < need:
        parser.error(f"--days must be at least {need} for {args.sectors} sectors, got {args.days}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    paths = make_demo_corpus(
        args.outdir,
        sectors=DEMO_SECTORS[: args.sectors],
        n_days=args.days,
        seed=args.seed,
    )
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
