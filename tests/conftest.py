import datetime as dt

import numpy as np
import pytest

from volseg.calendar import TradingCalendar
from volseg.cluster import COLOR_LADDER, PHASE_BY_COLOR, ClusterAssignment
from volseg.analysis import PhaseTimeline, Run
from volseg.divergence import segment_stats
from volseg.segmenter import Segment


def weekday_calendar(start: dt.date, n_days: int, samples_per_day: int = 14) -> TradingCalendar:
    """First n_days weekdays from start, no holidays."""
    end = start + dt.timedelta(days=int(n_days * 7 / 5) + 10)
    cal = TradingCalendar.from_range(start, end, samples_per_day=samples_per_day)
    return TradingCalendar(cal.days[:n_days], samples_per_day, cal.open_local, cal.tz)


def timeline_of(cal: TradingCalendar, pieces: list[tuple[int, str]], sector: str = "X") -> PhaseTimeline:
    """Build a PhaseTimeline from (length-in-half-hours, color) pieces."""
    grid = cal.grid
    runs = []
    cursor = 0
    for length, color in pieces:
        end = cursor + length
        runs.append(
            Run(cursor, end, grid[cursor], grid[end], color, PHASE_BY_COLOR[color])
        )
        cursor = end
    return PhaseTimeline(sector, tuple(runs))


def assignment_for_colors(colors_in_order: list[str]) -> ClusterAssignment:
    """One cluster per listed color, labels following the list order."""
    distinct: list[str] = []
    labels = []
    for c in colors_in_order:
        if c not in distinct:
            distinct.append(c)
        labels.append(distinct.index(c))
    vols = tuple(1e-4 * (1 + COLOR_LADDER.index(c)) for c in distinct)
    return ClusterAssignment(
        labels=tuple(labels),
        mean_vol=vols,
        k=len(distinct),
        colors=tuple(distinct),
        phases=tuple(PHASE_BY_COLOR[c] for c in distinct),
    )


def segments_for_lengths(x: np.ndarray, lengths: list[int]) -> list[Segment]:
    segs = []
    cursor = 0
    for n in lengths:
        segs.append(Segment(cursor, cursor + n, segment_stats(x[cursor : cursor + n])))
        cursor += n
    assert cursor == len(x)
    return segs


def scaled_window(rng: np.random.Generator, n: int, mean: float, stdev: float) -> np.ndarray:
    """A window whose MLE sample mean/stdev equal the targets exactly."""
    w = rng.normal(0.0, 1.0, n)
    w = w - w.mean()
    w = w / np.sqrt(np.mean(w**2))
    return mean + stdev * w


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240801)
