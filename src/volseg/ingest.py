"""Tic-by-tic ingestion: parse, filter, resample to the half-hourly grid.

Raw files are comma-separated with a header row::

    #RIC,Date[G],Time[G],GMT Offset,Type,Price
    .DJUSBM,02/14/2000,14:25:50.259,+0,Index,149.92

Dates are MM/DD/YYYY, times HH:MM:SS.SSS, both already GMT.  Malformed
rows are collected in a reject log rather than aborting the run; real
tick files contain noise.

Resampling takes, for every grid time g, the price of the last tick
strictly before g on that trading day.  Ticks after the close are
ignored, as are exchange-correction records posted well before the
open (``pre_open_grace`` bounds how far before the open a tick may
still count).  A grid point with no qualifying tick carries the
previous grid value forward.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import logging
import math
import operator
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence, TextIO

from . import _lazy
from .artifacts import write_csv

calendar = _lazy("volseg.calendar")  # series I/O never executes it
np = _lazy("numpy")
log = logging.getLogger(__name__)

DEFAULT_PRE_OPEN_GRACE = dt.timedelta(minutes=30)


@dataclass(frozen=True)
class TickColumns:
    """The accepted rows of one tick file as columns, in file order."""

    ric: str
    t_us: np.ndarray  # int64 microseconds since the epoch, UTC
    price: np.ndarray  # float64

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_us", np.asarray(self.t_us, dtype=np.int64))
        object.__setattr__(self, "price", np.asarray(self.price, dtype=np.float64))
        if self.t_us.ndim != 1 or self.t_us.shape != self.price.shape:
            raise ValueError("t_us and price must be 1-d columns of equal length")

    def __len__(self) -> int:
        return len(self.t_us)


@dataclass(frozen=True)
class RejectedRow:
    """A tick-file line that was skipped, and why."""

    line: int
    reason: str


def sector_from_ric(ric: str) -> str:
    """``.DJUSBM`` -> ``BM``; unrecognized codes pass through unprefixed."""
    code = ric.lstrip(".")
    if code.startswith("DJUS") and len(code) > 4:
        return code[4:]
    return code


# A price of at most 15 digits is an integer below 2**53 over an exact
# power of ten, so one IEEE division rounds it exactly as float() does.
_MAX_PRICE_DIGITS = 15
_MAX_PRICE_LEN = _MAX_PRICE_DIGITS + 1  # with the decimal point
_MAX_OFFSET_LEN = 3
_PAD = _MAX_PRICE_LEN  # zero bytes after the text, so field windows never index past it
# Characters read per block: a block's per-row temporaries stay within L2.
_BLOCK_CHARS = 1 << 18


@cache
def _pow10() -> np.ndarray:
    """``10.0 ** i`` for every count ``i`` of fractional digits."""
    return 10.0 ** np.arange(_MAX_PRICE_DIGITS + 1)


def _parse_row(lineno: int, line: str) -> tuple[str, int, float] | RejectedRow | None:
    """The full per-row checks: ``(ric, t_us, price)``, a reject, or None
    for a blank line."""
    if not line.strip():
        return None
    fields = line.split(",")
    if len(fields) != 6:
        return RejectedRow(lineno, f"expected 6 fields, got {len(fields)}")
    ric, date_s, time_s, offset_s, _kind, price_s = (f.strip() for f in fields)
    try:
        ts = dt.datetime.strptime(f"{date_s} {time_s}", "%m/%d/%Y %H:%M:%S.%f")
    except ValueError:
        return RejectedRow(lineno, f"unparseable date/time {date_s!r} {time_s!r}")
    try:
        int(offset_s)
    except ValueError:
        return RejectedRow(lineno, f"unparseable GMT offset {offset_s!r}")
    try:
        price = float(price_s)
    except ValueError:
        return RejectedRow(lineno, f"unparseable price {price_s!r}")
    if not math.isfinite(price) or price <= 0.0:
        return RejectedRow(lineno, f"non-positive price {price_s!r}")
    return ric, (ts.replace(tzinfo=dt.timezone.utc) - calendar.EPOCH) // calendar.MICROSECOND, price


def _is_digit(b: np.ndarray) -> np.ndarray:
    return b - ord("0") < 10  # uint8 arithmetic: bytes below '0' wrap past 9


def _digits(buf: np.ndarray, pos: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``width`` bytes at each ``pos`` read as a decimal number, and
    whether they all are ASCII digits."""
    value = np.zeros(len(pos), dtype=np.int64)
    ok = np.ones(len(pos), dtype=bool)
    for j in range(width):
        b = buf[pos + j]
        ok &= _is_digit(b)
        value = value * 10 + (b - ord("0"))
    return value, ok


@cache
def _month_days() -> np.ndarray:
    """Days in each month of a common year, with no days in months 0 and 13."""
    return np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])


def _civil_days(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Days since 1970-01-01 of proleptic Gregorian dates with non-negative
    fields, and whether each is a date of years 1 and later.

    The count is Hinnant's ``days_from_civil``: years start in March, so
    the leap day ends one; each 400-year era holds 146,097 days."""
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _month_days()[np.minimum(month, 13)] + (leap & (month == 2))
    ok = (year >= 1) & (day >= 1) & (day <= month_days)
    y = year - (month <= 2)
    era = y // 400
    year_of_era = y - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return era * 146_097 + day_of_era - 719_468, ok


def _decode_timestamps(
    buf: np.ndarray, c0: np.ndarray, c1: np.ndarray, c2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fields ``MM/DD/YYYY`` between commas ``c0`` and ``c1`` and
    ``HH:MM:SS.fff`` between ``c1`` and ``c2`` as epoch microseconds, and
    whether both are valid."""
    ok = (c1 - c0 == 11) & (buf[c0 + 3] == ord("/")) & (buf[c0 + 6] == ord("/"))
    month, ok_m = _digits(buf, c0 + 1, 2)
    day, ok_d = _digits(buf, c0 + 4, 2)
    year, ok_y = _digits(buf, c0 + 7, 4)
    days, ok_date = _civil_days(year, month, day)
    ok &= ok_m & ok_d & ok_y & ok_date

    t = c1 + 1
    ok &= (c2 - c1 == 13) & (buf[t + 2] == ord(":")) & (buf[t + 5] == ord(":")) & (buf[t + 8] == ord("."))
    hour, ok_h = _digits(buf, t, 2)
    minute, ok_mi = _digits(buf, t + 3, 2)
    second, ok_s = _digits(buf, t + 6, 2)
    milli, ok_ms = _digits(buf, t + 9, 3)
    ok &= ok_h & ok_mi & ok_s & ok_ms & (hour <= 23) & (minute <= 59) & (second <= 59)
    return ((days * 86400 + hour * 3600 + minute * 60 + second) * 1000 + milli) * 1000, ok


def _valid_offsets(buf: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Whether each field is an optional sign followed by digits."""
    lead = buf[start]
    signed = (lead == ord("+")) | (lead == ord("-"))
    ok = (length >= 1) & (length <= _MAX_OFFSET_LEN) & (_is_digit(lead) | (signed & (length > 1)))
    for j in range(1, _MAX_OFFSET_LEN):
        ok &= (length <= j) | _is_digit(buf[start + j])
    return ok


def _decode_prices(buf: np.ndarray, start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fields of digits with at most one inner decimal point as exactly
    rounded positive floats, and whether each is such a field."""
    mantissa = np.zeros(len(start), dtype=np.int64)
    dots = np.zeros(len(start), dtype=np.int64)
    dot_at = np.zeros(len(start), dtype=np.int64)
    ok = (length >= 1) & (length <= _MAX_PRICE_LEN)
    for j in range(min(_MAX_PRICE_LEN, int(length.max(initial=0)))):
        b = buf[start + j]
        inside = length > j
        is_digit = inside & _is_digit(b)
        is_dot = inside & (b == ord("."))
        ok &= ~inside | is_digit | is_dot
        mantissa = np.where(is_digit, mantissa * 10 + (b - ord("0")), mantissa)
        dots += is_dot
        dot_at = np.where(is_dot, j, dot_at)
    has_dot = dots == 1
    ok &= (dots <= 1) & (length - dots <= _MAX_PRICE_DIGITS) & (mantissa > 0)
    ok &= ~has_dot | ((dot_at > 0) & (dot_at < length - 1))
    frac_digits = np.where(ok & has_dot, length - 1 - dot_at, 0)
    return mantissa / _pow10()[frac_digits], ok


def _line_blocks(stream: TextIO) -> Iterator[str]:
    """The text of ``stream`` in pieces of whole lines, each cut after the
    last ``"\\n"`` of about ``_BLOCK_CHARS`` characters read; a line longer
    than that keeps reading until its newline or the end of the stream."""
    pending: list[str] = []
    while chunk := stream.read(_BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        yield "".join(pending)
        pending = [chunk[cut:]]
    tail = "".join(pending)
    if tail:
        yield tail


def _parse_block(
    text: str, line0: int, rics: set[str], rejects: list[RejectedRow]
) -> tuple[np.ndarray, np.ndarray, int]:
    """The accepted ``(t_us, price)`` columns of whole lines ``text``, whose
    first line is line ``line0 + 1`` of the stream, and the number of
    newlines in ``text``; adds the instrument codes of accepted rows to
    ``rics`` and the rejects to ``rejects``."""
    raw = text.encode("utf-8", "surrogatepass")
    n = len(raw)
    buf = np.frombuffer(raw + bytes(_PAD), dtype=np.uint8)
    newlines = np.flatnonzero(buf[:n] == ord("\n"))
    starts = np.concatenate(([0], newlines + 1))
    ends = np.append(newlines, n)
    ends -= (buf[ends - 1] == ord("\r")) & (ends > starts)
    skipped = (ends == starts) | (buf[starts] == ord("#"))

    commas = np.flatnonzero(buf[:n] == ord(","))
    first_comma = np.searchsorted(commas, starts)
    rows = np.flatnonzero(~skipped & (np.searchsorted(commas, ends) - first_comma == 5))
    s = starts[rows]
    c0, c1, c2, c3, c4 = (commas[first_comma[rows] + k] for k in range(5))
    # an instrument code without surrounding whitespace, which strip() keeps as is
    ok = (c0 > s) & (buf[s] > 0x20) & (buf[s] < 0x7F) & (buf[c0 - 1] > 0x20) & (buf[c0 - 1] < 0x7F)
    t_us, ok_t = _decode_timestamps(buf, c0, c1, c2)
    price, ok_p = _decode_prices(buf, c4 + 1, ends[rows] - c4 - 1)
    ok &= ok_t & _valid_offsets(buf, c2 + 1, c3 - c2 - 1) & ok_p
    rows, s, c0, t_us, price = rows[ok], s[ok], c0[ok], t_us[ok], price[ok]

    if len(rows):
        # the codes that differ from the first accepted row's
        ric = buf[s[0] : c0[0]].tobytes()
        same = c0 - s == len(ric)
        for j, byte in enumerate(ric):
            same &= buf[np.minimum(s + j, n)] == byte  # clipped where lengths differ
        odd = np.flatnonzero(~same)
        rics.update(buf[s[i] : c0[i]].tobytes().decode("utf-8", "surrogatepass") for i in odd)
        rics.add(ric.decode("utf-8", "surrogatepass"))

    fallback = ~skipped
    fallback[rows] = False
    fallback = np.flatnonzero(fallback)
    if len(fallback):
        lines = text.split("\n")
        accepted: list[tuple[int, int, float]] = []
        for i in fallback.tolist():
            row = _parse_row(line0 + i + 1, lines[i].rstrip("\r"))
            if isinstance(row, RejectedRow):
                rejects.append(row)
            elif row is not None:
                rics.add(row[0])
                accepted.append((i, row[1], row[2]))
        if accepted:
            more_rows, more_t, more_price = zip(*accepted)
            order = np.argsort(np.concatenate((rows, more_rows)), kind="stable")
            t_us = np.concatenate((t_us, np.array(more_t, dtype=np.int64)))[order]
            price = np.concatenate((price, more_price))[order]
    return t_us, price, len(newlines)


def parse_ticks(stream: TextIO) -> tuple[TickColumns, list[RejectedRow]]:
    """Parse a Table-2-format stream into tick columns plus a reject log.

    Lines starting with ``#`` (the header) emit no row.  A malformed row
    is recorded with its 1-based line number and a reason, never
    silently dropped.  Rows in the canonical form
    ``RIC,MM/DD/YYYY,HH:MM:SS.fff,[+-]D,Type,D[.D]`` (no spaces around
    fields, an offset of at most 3 characters, a positive price of at
    most 15 digits) are decoded as whole arrays; every other line goes
    through the per-row checks of ``_parse_row``, so both give the same
    rows and rejects.  Accepted rows with more than one instrument code
    raise ``ValueError``.

    The stream is read in blocks of whole lines of about ``_BLOCK_CHARS``
    characters, so beyond the 16 bytes per accepted row of the columns
    the parse holds one block's text and temporaries at a time.
    """
    rics: set[str] = set()
    rejects: list[RejectedRow] = []
    t_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    price_parts: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
    line0 = 0
    for text in _line_blocks(stream):
        t_us, price, lines = _parse_block(text, line0, rics, rejects)
        t_parts.append(t_us)
        price_parts.append(price)
        line0 += lines
    if len(rics) > 1:
        raise ValueError(f"mixed instrument codes in one tick file: {sorted(rics)}")
    t_us, price = np.concatenate(t_parts), np.concatenate(price_parts)
    return TickColumns(rics.pop() if rics else "", t_us, price), rejects


def write_reject_log(rejects: list[RejectedRow], path: str | Path) -> None:
    write_csv(path, ("line", "reason"), ((r.line, r.reason) for r in rejects))


@dataclass(frozen=True)
class HalfHourSeries:
    """Calendar-aligned index levels X_t, one per grid timestamp.

    ``grid_iso``, when given, is the ``isoformat()`` bytes of every grid
    time, one fixed-width uint8 row each; ``resample`` passes its
    calendar's, so only series resampled on one calendar share one text."""

    sector: str
    grid: tuple[dt.datetime, ...]
    values: np.ndarray
    grid_iso: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")
        if self.grid_iso is not None and len(self.grid_iso) != len(self.grid):
            raise ValueError("grid and grid_iso must have equal length")
        if len(self.values) and not np.all(self.values > 0.0):
            bad = int(np.argmin(self.values > 0.0))
            raise ValueError(f"non-positive level at {self.grid[bad].isoformat()}")
        if not all(map(operator.lt, self.grid, self.grid[1:])):
            raise ValueError("grid timestamps must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.values)


def resample(
    ticks: TickColumns,
    cal: calendar.TradingCalendar,
    pre_open_grace: dt.timedelta = DEFAULT_PRE_OPEN_GRACE,
) -> HalfHourSeries:
    """Sample the last-tick-before price at every calendar grid time.

    Ticks earlier than ``open - pre_open_grace`` are treated as exchange
    corrections and ignored; ticks after the close are ignored.  Days
    with no qualifying tick are fully carried forward (with a warning);
    grid points before the first usable tick are backfilled from it.
    """
    if not len(ticks):
        raise ValueError("empty tick set")
    sector = sector_from_ric(ticks.ric)
    order = np.argsort(ticks.t_us, kind="stable")  # ties keep file order
    t = ticks.t_us[order]
    spd = cal.samples_per_day
    opens, closes = cal.grid_us[:, 0], cal.grid_us[:, -1]
    grid = cal.grid_us.ravel()

    # A cursor walks the sorted ticks: each day it skips those before
    # open - grace, takes those before each grid time, then skips those
    # up to the close.  It never moves back, so its position after each
    # skip is a running maximum of the skip targets.
    cursor = np.empty(2 * len(opens), dtype=np.int64)
    cursor[0::2] = np.searchsorted(t, opens - pre_open_grace // calendar.MICROSECOND, side="left")
    cursor[1::2] = np.searchsorted(t, closes, side="right")
    np.maximum.accumulate(cursor, out=cursor)
    day_start, day_end = cursor[0::2], cursor[1::2]
    for d in np.flatnonzero(day_end == day_start):
        log.warning("%s: no qualifying ticks on %s, carrying forward", sector, cal.days[d])

    day_start = np.repeat(day_start, spd)
    taken = np.maximum(np.searchsorted(t, grid, side="left"), day_start)
    fresh = taken > day_start  # a tick of this day precedes this grid time
    if not fresh.any():
        raise ValueError(f"{sector}: no tick falls inside any trading session")
    source = np.where(fresh, np.arange(len(grid)), 0)
    np.maximum.accumulate(source, out=source)  # carry forward
    first_real = int(np.argmax(fresh))
    if first_real > 0:
        log.warning(
            "%s: first %d grid points precede the first usable tick, backfilled",
            sector,
            first_real,
        )
        source[:first_real] = first_real
    values = ticks.price[order[taken[source] - 1]]
    return HalfHourSeries(sector, cal.grid, values, cal.grid_iso)


def log_returns(series: HalfHourSeries) -> np.ndarray:
    """The float64 log-index movements x_t = ln X_{t+1} - ln X_t;
    requires N >= 2.  The levels are positive: ``HalfHourSeries`` checks it."""
    if series.n < 2:
        raise ValueError("need at least two samples to form returns")
    return np.diff(np.log(series.values))


# ---------------------------------------------------------------------------
# file formats


# Timestamps and float reprs hold no comma, quote, backslash or control
# character, so joining them as plain text gives the bytes that
# artifacts.write_csv and artifacts.write_json would write.  The series
# files are written a chunk of rows at a time, each chunk filled in as
# fixed-width bytes whose NUL pads are then deleted.
_CHUNK_ROWS = 4096


# Values in [1e-4, 1e9) whose shortest decimal has at most 6 fractional
# digits are written from arrays.  For such a value v the integer
# m = rint(v * 1e6) is that decimal times 1e6, and m / 1e6 == v.  Conversely,
# when m / 1e6 == v, the decimal m / 1e6 (at most 15 significant digits)
# rounds to v; no two decimals of at most 15 significant digits round to
# the same double, so it is repr's shortest one.  repr writes it without an
# exponent and with at least one fractional digit.
_FIXED_SCALE = 1e6
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e9
# The longest repr of a float, as in "-1.7976931348623157e+308".
_VALUE_WIDTH = 24


def _digit_words(k: np.ndarray, shown: Sequence[np.ndarray | bool], end: str) -> np.ndarray:
    """Each 3-digit group ``k`` = 000-999 as one 4-byte word: its digits
    where ``shown`` (one mask per digit, the most significant first), NUL
    bytes elsewhere, then ``end``."""
    text = np.zeros((1000, 4), dtype=np.uint8)
    for j, (digit, show) in enumerate(zip((k // 100, k // 10 % 10, k % 10), shown)):
        text[:, j] = np.where(show, ord("0") + digit, 0)
    text[:, 3] = ord(end)
    return text.view(np.uint32).ravel()


@cache
def _value_words() -> tuple[np.ndarray, ...]:
    """The word tables of a value's text: full, full_dot, no_lead,
    units_dot, first_frac and last_frac.

    A value's text is five words, m's 3-digit groups from the most
    significant: three integer groups, the last ending in ".", then two
    fractional groups.  The tables write leading integer zeros (but the
    units digit) and trailing fractional zeros (but the first fractional
    digit) as NUL bytes, which are then deleted."""
    k = np.arange(1000)
    every = (True, True, True)
    return (
        _digit_words(k, every, "\0"),
        _digit_words(k, every, "."),
        _digit_words(k, (k >= 100, k >= 10, k >= 1), "\0"),
        _digit_words(k, (k >= 100, k >= 10, True), "."),
        _digit_words(k, (True, k % 100 != 0, k % 10 != 0), "\0"),
        _digit_words(k, (k != 0, k % 100 != 0, k % 10 != 0), "\0"),
    )


def _render_values(values: np.ndarray) -> np.ndarray:
    """``repr`` of every value as ``_VALUE_WIDTH`` bytes with NUL pads, one
    row each: from the word tables where the value is in the fixed domain
    above, by ``repr`` itself elsewhere."""
    with np.errstate(over="ignore"):
        m = np.rint(values * _FIXED_SCALE)
    fixed = (values >= _FIXED_MIN) & (values < _FIXED_MAX) & (m / _FIXED_SCALE == values)
    m = np.where(fixed, m, 0.0).astype(np.int64)
    groups = []
    for _ in range(4):
        m, group = np.divmod(m, 1000)
        groups.append(group)
    frac0, frac1, int0, int1 = groups
    full, full_dot, no_lead, units_dot, first_frac, last_frac = _value_words()
    words = np.zeros((len(values), _VALUE_WIDTH // 4), dtype=np.uint32)
    words[:, 0] = no_lead[m]
    words[:, 1] = np.where(m != 0, full[int1], no_lead[int1])
    words[:, 2] = np.where((m | int1) != 0, full_dot[int0], units_dot[int0])
    words[:, 3] = np.where(frac0 != 0, full[frac1], first_frac[frac1])
    words[:, 4] = last_frac[frac0]
    text = words.view(np.uint8)
    other = np.flatnonzero(~fixed)
    text.view(f"S{_VALUE_WIDTH}")[other, 0] = [repr(v).encode() for v in values[other].tolist()]
    return text


def _render_grid(series: HalfHourSeries, rows: slice) -> np.ndarray:
    """``isoformat()`` of the grid times ``rows`` as bytes with NUL pads,
    one row each: cut from ``grid_iso`` when it is set, else formatted
    time by time."""
    if series.grid_iso is not None:
        return series.grid_iso[rows]
    text = np.array([t.isoformat().encode() for t in series.grid[rows]])
    return text.view(np.uint8).reshape(len(text), -1)


def _chunks(n: int) -> Iterator[slice]:
    return (slice(i, min(i + _CHUNK_ROWS, n)) for i in range(0, n, _CHUNK_ROWS))


def _rows(cells: Sequence[bytes | np.ndarray]) -> bytes:
    """Rows made of ``cells`` side by side, each a constant or a uint8
    array of one row per row, with every NUL byte deleted."""
    widths = [cell.shape[1] if isinstance(cell, np.ndarray) else len(cell) for cell in cells]
    n = next(len(cell) for cell in cells if isinstance(cell, np.ndarray))
    out = np.empty((n, sum(widths)), dtype=np.uint8)
    col = 0
    for cell, width in zip(cells, widths):
        out[:, col : col + width] = np.frombuffer(cell, dtype=np.uint8) if isinstance(cell, bytes) else cell
        col += width
    return out.tobytes().translate(None, b"\0")


def series_to_csv(series: HalfHourSeries, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"timestamp,value\n")
        for rows in _chunks(series.n):
            fh.write(_rows((_render_grid(series, rows), b",", _render_values(series.values[rows]), b"\n")))


def series_from_csv(path: str | Path) -> HalfHourSeries:
    """The series of a ``timestamp,value`` file; its sector is the file's
    stem.  A malformed file raises ValueError naming ``path``."""
    grid: list[dt.datetime] = []
    values: list[float] = []
    try:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                grid.append(dt.datetime.fromisoformat(row["timestamp"]))
                values.append(float(row["value"]))
        return HalfHourSeries(Path(path).stem, tuple(grid), np.array(values))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed series ({type(exc).__name__}: {exc})") from exc


def _write_strings(fh: BinaryIO, n: int, render: Callable[[slice], np.ndarray]) -> None:
    """A list of ``n`` strings that need no escapes, as a value of the
    top-level object, rendered a chunk of rows at a time."""
    if not n:
        fh.write(b"[]")
        return
    fh.write(b"[\n")
    for rows in _chunks(n):
        text = _rows((b'  "', render(rows), b'",\n'))
        fh.write(text if rows.stop < n else text[:-2])
    fh.write(b"\n ]")


def series_to_json(series: HalfHourSeries, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(f'{{\n "sector": {json.dumps(series.sector)},\n "timestamps": '.encode())
        _write_strings(fh, series.n, lambda rows: _render_grid(series, rows))
        fh.write(b',\n "values": ')
        _write_strings(fh, series.n, lambda rows: _render_values(series.values[rows]))
        fh.write(b"\n}\n")


def series_from_json(path: str | Path) -> HalfHourSeries:
    """The series ``series_to_json`` wrote; a malformed file raises ValueError naming ``path``."""
    try:
        payload = json.loads(Path(path).read_text())
        grid = tuple(map(dt.datetime.fromisoformat, payload["timestamps"]))
        values = np.array(list(map(float, payload["values"])))
        return HalfHourSeries(payload["sector"], grid, values)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed series ({type(exc).__name__}: {exc})") from exc
