"""Exchange trading calendar and the half-hourly sampling grid.

The default grid mirrors the NYSE session: 14 samples per trading day,
at the 09:30 local open and every 30 minutes through the 16:00 close.
In GMT that is 14:30..21:00 in winter and 13:30..20:00 under daylight
saving; the shift is resolved per day through the IANA timezone
database, so one UTC offset applies to a whole session.
"""

from __future__ import annotations

import bisect
import datetime as dt
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
MICROSECOND = dt.timedelta(microseconds=1)
HALF_HOUR = dt.timedelta(minutes=30)
DEFAULT_SAMPLES_PER_DAY = 14
DEFAULT_OPEN = dt.time(9, 30)
DEFAULT_TZ = "America/New_York"


def _weekdays(start: dt.date, end: dt.date) -> list[dt.date]:
    days = []
    d = start
    one = dt.timedelta(days=1)
    while d <= end:
        if d.weekday() < 5:
            days.append(d)
        d += one
    return days


def load_holidays(path: str | Path) -> tuple[dt.date, ...]:
    """Read a holiday file: one ISO date per line, blank lines and ``#``
    comments ignored.  A bad date raises ``ValueError`` naming the file and
    its 1-based line."""
    holidays = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            holidays.append(dt.date.fromisoformat(line))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return tuple(holidays)


def _date_runs(times: tuple[dt.datetime, ...]) -> list[tuple[int, list[str]]]:
    """``times`` cut where the date changes: each run's first index and the
    ``isoformat()`` of its times without the date."""
    runs: list[tuple[int, list[str]]] = []
    day = None
    for k, t in enumerate(times):
        if t.date() != day:
            day = t.date()
            runs.append((k, []))
        runs[-1][1].append(t.isoformat()[10:])
    return runs


@dataclass(frozen=True)
class TradingCalendar:
    """Ordered trading days plus the intraday sampling rule.

    ``days`` must be strictly increasing.  The wall-clock close is
    derived from the open and the sample count, so the invariant
    "open plus successive 30-minute increments up to and including the
    close" holds by construction.
    """

    days: tuple[dt.date, ...]
    samples_per_day: int = DEFAULT_SAMPLES_PER_DAY
    open_local: dt.time = DEFAULT_OPEN
    tz: str = DEFAULT_TZ

    def __post_init__(self) -> None:
        if not self.days:
            raise ValueError("calendar needs at least one trading day")
        if self.samples_per_day < 1:
            raise ValueError("samples_per_day must be positive")
        if any(b <= a for a, b in zip(self.days, self.days[1:])):
            raise ValueError("trading days must be strictly increasing")
        try:
            ZoneInfo(self.tz)
        except (ValueError, ZoneInfoNotFoundError) as exc:
            raise ValueError(f"unknown time zone {self.tz!r}") from exc

    @classmethod
    def from_range(
        cls,
        start: dt.date,
        end: dt.date,
        holidays: tuple[dt.date, ...] | list[dt.date] = (),
        samples_per_day: int = DEFAULT_SAMPLES_PER_DAY,
        open_local: dt.time = DEFAULT_OPEN,
        tz: str = DEFAULT_TZ,
    ) -> "TradingCalendar":
        """Weekday calendar over [start, end] minus the given holidays."""
        skip = set(holidays)
        days = tuple(d for d in _weekdays(start, end) if d not in skip)
        if not days:
            raise ValueError(f"no trading days between {start} and {end}")
        return cls(days, samples_per_day, open_local, tz)

    @cached_property
    def _zone(self) -> ZoneInfo:
        return ZoneInfo(self.tz)

    def session_open(self, day: dt.date) -> dt.datetime:
        local = dt.datetime.combine(day, self.open_local, tzinfo=self._zone)
        return local.astimezone(dt.timezone.utc)

    @cached_property
    def grid(self) -> tuple[dt.datetime, ...]:
        """All sampling timestamps (UTC), day by day."""
        steps = [HALF_HOUR * k for k in range(self.samples_per_day)]
        out = []
        for day in self.days:
            t0 = self.session_open(day)
            out.extend([t0 + step for step in steps])
        return tuple(out)

    @cached_property
    def grid_text(self) -> tuple[str, ...]:
        """``isoformat()`` of every grid time, built a session at a time.

        Sessions that open at the same UTC time and offset share the tails
        of one session's ``isoformat()`` calls; each session adds one date
        text per UTC date it spans, two when it crosses midnight.  A date
        of years 1-9999 is always 10 characters, so date and tail join
        into the full text."""
        spd = self.samples_per_day
        grid = self.grid
        pieces: dict[tuple[dt.time, dt.timedelta | None], list[tuple[int, list[str]]]] = {}
        lines: list[str] = []  # one per date run, its times' text joined by newlines
        for i in range(0, len(grid), spd):
            key = grid[i].time(), grid[i].utcoffset()
            parts = pieces.get(key)
            if parts is None:
                parts = pieces[key] = _date_runs(grid[i : i + spd])
            for k, tails in parts:
                day = grid[i + k].date().isoformat()
                lines.append(day + ("\n" + day).join(tails))
        return tuple("\n".join(lines).split("\n"))

    @cached_property
    def grid_us(self) -> np.ndarray:
        """``grid`` as int64 microseconds since the epoch, one row of
        ``samples_per_day`` per day (read-only): column 0 holds the session
        opens and the last column the closes."""
        opens = np.array([(t - EPOCH) // MICROSECOND for t in self.grid[:: self.samples_per_day]], dtype=np.int64)
        out = opens[:, None] + HALF_HOUR // MICROSECOND * np.arange(self.samples_per_day, dtype=np.int64)
        out.flags.writeable = False
        return out

    def __len__(self) -> int:
        return len(self.days) * self.samples_per_day

    def __getitem__(self, i: int) -> dt.datetime:
        """``grid[i]``, computed alone from its session's open, for a
        caller that reads only a few grid times."""
        if not 0 <= i < len(self):
            raise IndexError(f"grid index {i} out of range")
        day, k = divmod(i, self.samples_per_day)
        return self.session_open(self.days[day]) + HALF_HOUR * k

    def trading_days_between(self, a: dt.date, b: dt.date) -> int:
        """Signed count of sessions from ``a`` to ``b`` (positive if b later).

        A date that is not a trading day stands at the first session after it."""
        return bisect.bisect_left(self.days, b) - bisect.bisect_left(self.days, a)
