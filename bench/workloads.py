"""Benchmark workloads: inputs generated from a seed, plus their truth.

Every workload writes its inputs with ``volseg.synthetic`` and returns
the command lines of one timed invocation (``prepare``).  Separately,
outside the timed set-up, it rebuilds the truth the artifacts are
checked against (``truth``): the level every series value must equal
and the planted regime boundaries.  The truth comes from the same
generators and seed, never from a stored snapshot, so a change to labels
or file layout elsewhere in the pipeline does not invalidate it.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from volseg import synthetic
from volseg.calendar import TradingCalendar

START = dt.date(2006, 1, 2)  # make_demo_corpus's default start
# ManyLeaf regimes: lengths in returns, and a 5-level volatility ladder
# on which neighbouring regimes always differ in level
REGIME_LEN = (60, 160)
SIGMA_LADDER = (4.5e-4, 9e-4, 1.8e-3, 3.6e-3, 7.2e-3)


@dataclass(frozen=True)
class Prepared:
    """What one set-up leaves behind for the timed loop."""

    setup_steps: tuple[tuple[str, ...], ...]  # CLI runs that belong to set-up
    steps: tuple[tuple[str, ...], ...]  # CLI runs of one timed invocation
    series_dir: Path  # where the series JSON files checked against levels live


@dataclass(frozen=True)
class Truth:
    """What the artifacts of every invocation are checked against."""

    levels: dict[str, np.ndarray]  # sector -> expected series values
    boundaries: dict[str, np.ndarray]  # sector -> planted boundary return indices


def expected_values(levels: np.ndarray) -> np.ndarray:
    """Series values ingest must produce: the tick price as written, 4 decimals."""
    return np.array([float(f"{level:.4f}") for level in levels])


def planted(pieces: list[tuple[int, float, float]]) -> np.ndarray:
    """Return indices at which each regime after the first begins."""
    return np.cumsum([p[0] for p in pieces])[:-1]


@dataclass(frozen=True)
class DemoLayout:
    """``make_demo_corpus`` run through ``volseg pipeline``.

    The demo's quiet/shock layout at 120 days gives many small sectors;
    at 2,254 days its quiet stretches are about 10k returns long, so
    ``refine_long_segments`` does real work.
    """

    sectors: int
    days: int

    def prepare(self, root: Path, out: Path, seed: int) -> Prepared:
        sectors = synthetic.DEMO_SECTORS[: self.sectors]
        paths = synthetic.make_demo_corpus(root, sectors=sectors, n_days=self.days, seed=seed)
        pipeline = (
            "pipeline",
            *(str(paths[s]) for s in sectors),
            "--out", str(out),
            "--holidays", str(paths["holidays"]),
            "--events", str(paths["events"]),
        )
        return Prepared((), (pipeline,), out / "series")

    def truth(self, seed: int) -> Truth:
        # make_demo_corpus keeps its levels to itself; rebuild them from the
        # same public generators and seeds it uses
        levels = {}
        boundaries = {}
        for i, sector in enumerate(synthetic.DEMO_SECTORS[: self.sectors]):
            pieces = synthetic.demo_sector_pieces(i, self.days)
            x = synthetic.regime_returns(pieces, seed + i)
            levels[sector] = expected_values(synthetic.levels_from_returns(x, 100.0 + 10.0 * i))
            boundaries[sector] = planted(pieces)
        return Truth(levels, boundaries)


@dataclass(frozen=True)
class ManyLeaf:
    """Hundreds of short planted regimes per sector, so the dendrogram has
    hundreds of leaves; set-up ingests once and the timed invocation is
    ``segment`` -> ``cluster`` -> ``analyze`` on the ingested series."""

    sectors: int
    days: int

    def calendar(self) -> TradingCalendar:
        end = START + dt.timedelta(days=self.days * 7 // 5 + 14)
        return TradingCalendar(TradingCalendar.from_range(START, end).days[: self.days])

    def sector_levels(self, seed: int, cal: TradingCalendar):
        """Yield (sector index, sector, regimes, tick levels) for every sector."""
        n = self.days * cal.samples_per_day - 1
        for i, sector in enumerate(synthetic.DEMO_SECTORS[: self.sectors]):
            pieces = regimes(np.random.default_rng([seed, i]), n)
            x = synthetic.regime_returns(pieces, seed * 1000 + i)
            yield i, sector, pieces, synthetic.levels_from_returns(x, 100.0 + 10.0 * i)

    def prepare(self, root: Path, out: Path, seed: int) -> Prepared:
        cal = self.calendar()
        tick_dir = root / "ticks"
        tick_dir.mkdir(parents=True, exist_ok=True)
        sectors = []
        ticks = []
        for i, sector, _, level in self.sector_levels(seed, cal):
            path = tick_dir / f"{sector}.csv"
            synthetic.write_tick_file(path, sector, cal, level, seed=seed * 1000 + 500 + i)
            sectors.append(sector)
            ticks.append(str(path))
        days = cal.days
        events = root / "rate_events.csv"
        events.write_text(
            "date,change,new_rate\n"
            f"{days[len(days) // 3].isoformat()},-0.5,4.5\n"
            f"{days[2 * len(days) // 3].isoformat()},-0.25,4.25\n"
        )
        base = root / "base"
        ingest = ("ingest", *ticks, "--out", str(base))
        series = [str(base / "series" / f"{s}.json") for s in sectors]
        tables = [str(out / "segments" / f"{s}.json") for s in sectors]
        steps = (
            ("segment", *series, "--out", str(out)),
            ("cluster", *tables, "--out", str(out)),
            (
                "analyze",
                "--segments", *tables,
                "--assignments-dir", str(out / "clusters"),
                "--calendar", str(base / "calendar.json"),
                "--events", str(events),
                "--out", str(out),
            ),
        )
        return Prepared((ingest,), steps, base / "series")

    def truth(self, seed: int) -> Truth:
        levels = {}
        boundaries = {}
        for _, sector, pieces, level in self.sector_levels(seed, self.calendar()):
            levels[sector] = expected_values(level)
            boundaries[sector] = planted(pieces)
        return Truth(levels, boundaries)


def regimes(rng: np.random.Generator, n: int) -> list[tuple[int, float, float]]:
    """Regimes tiling n returns, lengths spread evenly over REGIME_LEN.

    The lengths are one fixed multiset, only shuffled by the seed, so
    every seed plants the same number of regimes and the cubic
    clustering work stays comparable across seeds.
    """
    lo, hi = REGIME_LEN
    count = round(2 * n / (lo + hi))
    exact = np.linspace(lo, hi, count)
    exact *= n / exact.sum()
    lengths = np.floor(exact).astype(int)
    lengths[np.argsort(lengths - exact)[: n - lengths.sum()]] += 1
    out: list[tuple[int, float, float]] = []
    level = -1
    for length in rng.permutation(lengths):
        choices = [k for k in range(len(SIGMA_LADDER)) if k != level]
        level = choices[int(rng.integers(len(choices)))]
        out.append((int(length), 0.0, SIGMA_LADDER[level]))
    return out


WORKLOADS = {
    "demo": DemoLayout(sectors=10, days=120),
    "paper": DemoLayout(sectors=2, days=2254),
    "manyleaf": ManyLeaf(sectors=2, days=2254),
}
