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
import numbers
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

from . import _lazy

np = _lazy("numpy")
zoneinfo = _lazy("zoneinfo")

EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
MICROSECOND = dt.timedelta(microseconds=1)
HALF_HOUR = dt.timedelta(minutes=30)
DEFAULT_SAMPLES_PER_DAY = 14
DEFAULT_OPEN = dt.time(9, 30)
DEFAULT_TZ = "America/New_York"
_DAY_US = dt.timedelta(days=1) // MICROSECOND


def _digits(width: int) -> np.ndarray:
    """Every number below 10**width as ``width`` ASCII digits, one row each."""
    return np.indices((10,) * width, dtype=np.uint8).reshape(width, -1).T + ord("0")


def _words(table: np.ndarray) -> np.ndarray:
    """Each row of a uint8 table as one void item, to copy a field at once."""
    return np.ascontiguousarray(table).view(f"V{table.shape[1]}").ravel()


def _field(rows: np.ndarray, col: int, width: int) -> np.ndarray:
    """Bytes ``col`` to ``col + width`` of every row, one void item per row."""
    return np.ndarray(len(rows), f"V{width}", rows, col, (rows.shape[1],))


def _iso_dates(first_day: int, last_day: int) -> np.ndarray:
    """``YYYY-MM-DD`` of every UTC day from ``first_day`` to ``last_day``
    (days since the epoch), one row of ASCII bytes each; years below 1000
    keep four digits."""
    iso = np.datetime_as_string(np.arange(first_day, last_day + 1).astype("datetime64[D]"))
    return iso.astype("S10").view(np.uint8).reshape(-1, 10)


@cache
def _two_digits() -> np.ndarray:
    """Every number below 100 as two ASCII digits, one void item each."""
    return _words(_digits(2))


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
    its 1-based line, a file that is not UTF-8 one naming the file."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    holidays = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            holidays.append(dt.date.fromisoformat(line))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return tuple(holidays)


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
        if isinstance(self.samples_per_day, bool) or not isinstance(self.samples_per_day, numbers.Integral):
            raise ValueError(f"samples_per_day must be an integer, not {self.samples_per_day!r}")
        if self.samples_per_day < 1:
            raise ValueError("samples_per_day must be positive")
        if any(b <= a for a, b in zip(self.days, self.days[1:])):
            raise ValueError("trading days must be strictly increasing")
        try:
            zoneinfo.ZoneInfo(self.tz)
        except (ValueError, zoneinfo.ZoneInfoNotFoundError) as exc:
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
    def _zone(self) -> zoneinfo.ZoneInfo:
        return zoneinfo.ZoneInfo(self.tz)

    def session_open(self, day: dt.date) -> dt.datetime:
        local = dt.datetime.combine(day, self.open_local, tzinfo=self._zone)
        return local.astimezone(dt.timezone.utc)

    @cached_property
    def _opens(self) -> tuple[dt.datetime, ...]:
        """``session_open`` of every trading day."""
        return tuple(map(self.session_open, self.days))

    @cached_property
    def grid(self) -> tuple[dt.datetime, ...]:
        """All sampling timestamps (UTC), day by day."""
        steps = [HALF_HOUR * k for k in range(self.samples_per_day)]
        out = []
        for t0 in self._opens:
            out.extend([t0 + step for step in steps])
        return tuple(out)

    @cached_property
    def grid_iso(self) -> np.ndarray:
        """``isoformat()`` of every grid time as ASCII bytes, one row each
        (read-only): ``YYYY-MM-DDTHH:MM:SS+00:00``, 25 bytes, or 32 with
        ``.ffffff`` after the seconds when the open carries microseconds,
        which every grid time then shares.

        The rows are filled from ``grid_us``: the date from one table of
        every UTC day the grid spans, so a session that crosses UTC
        midnight takes the next date after it, and the time from
        two-digit tables."""
        day, us = np.divmod(self.grid_us.ravel(), _DAY_US)
        sec, micro = np.divmod(us, 1_000_000)
        minute, second = np.divmod(sec, 60)
        hour, minute = np.divmod(minute, 60)
        fraction = b".000000" if micro.any() else b""
        template = b"0000-00-00T00:00:00" + fraction + b"+00:00"
        out = np.empty((len(day), len(template)), dtype=np.uint8)
        out[:] = np.frombuffer(template, dtype=np.uint8)
        first = int(day[0])
        _field(out, 0, 10)[...] = _words(_iso_dates(first, int(day[-1])))[day - first]
        two_digits = _two_digits()
        for col, value in ((11, hour), (14, minute), (17, second)):
            _field(out, col, 2)[...] = two_digits[value]
        if fraction:
            for col, value in ((20, micro // 10_000), (22, micro // 100 % 100), (24, micro % 100)):
                _field(out, col, 2)[...] = two_digits[value]
        out.flags.writeable = False
        return out

    @cached_property
    def grid_us(self) -> np.ndarray:
        """``grid`` as int64 microseconds since the epoch, one row of
        ``samples_per_day`` per day (read-only): column 0 holds the session
        opens and the last column the closes."""
        opens = np.array([(t - EPOCH) // MICROSECOND for t in self._opens], dtype=np.int64)
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
