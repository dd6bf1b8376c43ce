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

from .calendar import DEFAULT_SAMPLES_PER_DAY, EPOCH, HALF_HOUR, MICROSECOND, TradingCalendar

DEMO_SECTORS = ("BM", "CY", "EN", "FN", "HC", "IN", "NC", "TC", "TL", "UT")
# The least level whose tick price prints as positive at 4 decimals.
_MIN_LEVEL = 5e-05

# Trading days rendered per block: about 0.4 MB of row temporaries at 14
# samples and 3 ticks per half hour, whatever the calendar's length.
_BLOCK_DAYS = 16
# numpy's YYYY-MM-DDTHH:MM:SS.mmm rearranged as MM-DD-YYYYTHH:MM:SS.mmm; the
# characters at 2, 5 and 10 then become "/", "/" and ","
_STAMP_ORDER = np.array([5, 6, 4, 8, 9, 4, 0, 1, 2, 3, *range(10, 23)])


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
    ticks_per_half_hour: int = 3,
    with_noise_rows: bool = True,
) -> None:
    """Render a level path as a raw tick file on the calendar grid.

    One tick lands just before every grid time carrying the exact grid
    level, so resampling recovers ``levels``; extra in-between ticks,
    a pre-open correction row, and a post-close straggler exercise the
    ingestion filters.  Every level must be finite and at least
    0.00005, the least that prints as a positive 4-decimal price.

    The file is rendered ``_BLOCK_DAYS`` trading days at a time.  The
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
    n_between = max(ticks_per_half_hour - 1, 0)
    # how long each in-between tick precedes its grid time, rounded to the
    # microsecond as timedelta rounds it
    lead_us = np.array(
        [
            dt.timedelta(seconds=1800 * (1 - (j + 1) / (ticks_per_half_hour + 1))) // MICROSECOND
            for j in range(n_between)
        ],
        dtype=np.int64,
    )
    spd = cal.samples_per_day
    opens_us = cal.open_us
    levels = levels.reshape(-1, spd)
    row = f"{f'.DJUS{sector}'.replace('%', '%%')},%s,+0,Index,%.4f\n"

    with Path(path).open("w") as fh:
        fh.write("#RIC,Date[G],Time[G],GMT Offset,Type,Price\n")
        if with_noise_rows:
            # exchange-correction row hours before the open: must be ignored
            fh.write(_tick_rows(row, opens_us[:1] - dt.timedelta(hours=2) // MICROSECOND, levels[0, :1] * 1.5))
        for d in range(0, len(opens_us), _BLOCK_DAYS):
            block = slice(d, d + _BLOCK_DAYS)
            grid_us = opens_us[block, None] + HALF_HOUR // MICROSECOND * np.arange(spd)
            level = levels[block]
            wobble = wobble_rng.normal(0, 2e-5, grid_us.shape + (n_between,))
            lag_ms = lag_rng.integers(200, 1500, grid_us.shape)
            t_us = np.empty(grid_us.shape + (n_between + 1,), dtype=np.int64)
            t_us[..., :-1] = grid_us[..., None] - lead_us
            t_us[..., -1] = grid_us - 1000 * lag_ms
            price = np.empty(t_us.shape)
            price[..., :-1] = np.maximum(level[..., None] * (1.0 + wobble), 1e-6)
            price[..., -1] = level
            t_us = t_us.reshape(len(grid_us), -1)
            price = price.reshape(len(grid_us), -1)
            if with_noise_rows:
                # post-close straggler, about 0.1% off: must be ignored
                close_us = np.array([(cal.session_close(day) - EPOCH) // MICROSECOND for day in cal.days[block]])
                t_us = np.column_stack((t_us, close_us + dt.timedelta(minutes=3) // MICROSECOND))
                price = np.column_stack((price, level[:, -1] * 1.001))
            fh.write(_tick_rows(row, t_us.ravel(), price.ravel()))


def _tick_rows(row: str, t_us: np.ndarray, price: np.ndarray) -> str:
    """``row`` filled with each tick's ``MM/DD/YYYY,HH:MM:SS.mmm`` time (the
    milliseconds truncated) and its price."""
    text = np.datetime_as_string((t_us // 1000).astype("datetime64[ms]"), unit="ms")
    chars = text.view(np.uint32).reshape(len(text), -1).take(_STAMP_ORDER, axis=1)
    chars[:, [2, 5]] = ord("/")
    chars[:, 10] = ord(",")
    fields: list = [None] * (2 * len(text))
    fields[::2] = chars.view(f"U{len(_STAMP_ORDER)}").ravel().tolist()
    fields[1::2] = price.tolist()
    return (row * len(text)) % tuple(fields)


def demo_sector_pieces(
    sector_index: int, n_days: int, samples_per_day: int = 14
) -> list[tuple[int, float, float]]:
    """A quiet/shock/quiet/shock/quiet regime layout, staggered by sector."""
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
    start: dt.date = dt.date(2006, 1, 2),
    seed: int = 7,
) -> dict[str, Path]:
    """Write tick files (under ticks/), a holiday file, and a rate-event file."""
    need = _demo_min_days(len(sectors))
    if n_days < need:
        raise ValueError(f"a demo corpus of {len(sectors)} sectors needs at least {need} days, got {n_days}")
    outdir = Path(outdir)
    tick_dir = outdir / "ticks"
    tick_dir.mkdir(parents=True, exist_ok=True)
    end = start + dt.timedelta(days=int(n_days * 7 / 5) + 14)
    holidays = (start + dt.timedelta(days=14),)
    while holidays[0].weekday() >= 5:
        holidays = (holidays[0] + dt.timedelta(days=1),)
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
