"""The columnar tick parse and resample against a per-row reference.

``oracle_parse`` and ``oracle_resample`` below are the row-by-row
``strptime`` parse and the per-tick cursor walk that the columnar code
replaced.  They import nothing from volseg's ingest module, so the two
implementations share no parsing or sampling code.  Seeded random tick
files cover ties, ticks exactly at grid times and at the close, pre-open
corrections, post-close stragglers, empty days, DST switch days, CRLF
endings, blank and comment lines, valid rows outside the canonical form
and every reject reason; each file is checked at several pre-open grace
values.  The same files, and lines built to fall on block edges, are also
parsed with the stream read in blocks of a few characters.
"""

import datetime as dt
import io
import logging
import math
import re

import numpy as np
import pytest

from volseg import ingest
from volseg.calendar import HALF_HOUR, TradingCalendar
from volseg.ingest import TickColumns, parse_ticks, resample

UTC = dt.timezone.utc
EPOCH = dt.datetime(1970, 1, 1, tzinfo=UTC)
US = dt.timedelta(microseconds=1)
HEADER = "#RIC,Date[G],Time[G],GMT Offset,Type,Price"
RIC = ".DJUSBM"
GRACES_MIN = (-30, 0, 30, 1200)
# calendars that straddle a daylight-saving switch (2006: first Sunday of
# April and last of October; 2007 on: second Sunday of March, first of November)
DST_STARTS = (dt.date(2006, 3, 29), dt.date(2006, 10, 25), dt.date(2007, 3, 7), dt.date(2007, 10, 31))


# ---------------------------------------------------------------------------
# reference implementation: one row and one tick at a time


def oracle_parse(stream):
    """Rows as (ric, aware UTC datetime, price) plus (line, reason, raw) rejects."""
    records, rejects = [], []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 6:
            rejects.append((lineno, f"expected 6 fields, got {len(fields)}", line))
            continue
        ric, date_s, time_s, offset_s, _kind, price_s = (f.strip() for f in fields)
        try:
            ts = dt.datetime.strptime(f"{date_s} {time_s}", "%m/%d/%Y %H:%M:%S.%f")
        except ValueError:
            rejects.append((lineno, f"unparseable date/time {date_s!r} {time_s!r}", line))
            continue
        try:
            int(offset_s)
        except ValueError:
            rejects.append((lineno, f"unparseable GMT offset {offset_s!r}", line))
            continue
        try:
            price = float(price_s)
        except ValueError:
            rejects.append((lineno, f"unparseable price {price_s!r}", line))
            continue
        if not math.isfinite(price) or price <= 0.0:
            rejects.append((lineno, f"non-positive price {price_s!r}", line))
            continue
        records.append((ric, ts.replace(tzinfo=UTC), price))
    return records, rejects


def oracle_resample(records, cal, grace):
    """(values, warnings) of the last-tick-before walk; raises ValueError
    where resampling must fail."""
    if not records:
        raise ValueError("empty tick set")
    rics = {r[0] for r in records}
    if len(rics) > 1:
        raise ValueError(f"mixed instrument codes: {sorted(rics)}")
    code = records[0][0].lstrip(".")
    sector = code[4:] if code.startswith("DJUS") and len(code) > 4 else code
    ordered = sorted(records, key=lambda r: r[1])
    warnings = []
    values = []
    prev = None
    i = 0
    for day in cal.days:
        day_open = cal.session_open(day)
        day_close = cal.session_open(day) + (cal.samples_per_day - 1) * HALF_HOUR
        while i < len(ordered) and ordered[i][1] < day_open - grace:
            i += 1
        day_start = i
        grid_t = day_open
        last = None
        used_any = False
        for _ in range(cal.samples_per_day):
            while i < len(ordered) and ordered[i][1] < grid_t and ordered[i][1] <= day_close:
                last = ordered[i][2]
                used_any = True
                i += 1
            if last is not None:
                prev = last
            values.append(prev)
            grid_t += dt.timedelta(minutes=30)
        while i < len(ordered) and ordered[i][1] <= day_close:
            i += 1
        if not used_any and i == day_start:
            warnings.append(f"{sector}: no qualifying ticks on {day}, carrying forward")
    first_real = next((j for j, v in enumerate(values) if v is not None), None)
    if first_real is None:
        raise ValueError(f"{sector}: no tick falls inside any trading session")
    if first_real > 0:
        warnings.append(
            f"{sector}: first {first_real} grid points precede the first usable tick, backfilled"
        )
        values[:first_real] = [values[first_real]] * first_real
    return values, warnings


# ---------------------------------------------------------------------------
# seeded random tick files


def canonical_row(ts: dt.datetime, price: str, ric: str = RIC, offset: str = "+0") -> str:
    return f"{ric},{ts:%m/%d/%Y},{ts:%H:%M:%S}.{ts.microsecond // 1000:03d},{offset},Index,{price}"


def variant_row(rng: np.random.Generator, ts: dt.datetime, price: float) -> str:
    """A valid row outside the canonical form."""
    kind = int(rng.integers(10))
    if kind == 0:  # month and day without a leading zero
        return f"{RIC},{ts.month}/{ts.day}/{ts.year},{ts:%H:%M:%S}.{ts.microsecond // 1000:03d},+0,Index,{price:.4f}"
    if kind == 1:  # one fractional digit
        return f"{RIC},{ts:%m/%d/%Y},{ts:%H:%M:%S}.{ts.microsecond // 100000},+0,Index,{price:.4f}"
    if kind == 2:  # six fractional digits
        frac = ts.microsecond + int(rng.integers(1000))
        return f"{RIC},{ts:%m/%d/%Y},{ts:%H:%M:%S}.{frac:06d},+0,Index,{price:.4f}"
    if kind == 3:  # spaces around every field
        fields = canonical_row(ts, f"{price:.4f}").split(",")
        return ",".join(f" {f}\t" if j % 2 else f"  {f} " for j, f in enumerate(fields))
    if kind == 4:
        return canonical_row(ts, f"{price:.4f}", offset="+5")
    if kind == 5:  # exponent notation
        return canonical_row(ts, f"{price:.6e}")
    if kind == 6:  # more digits than the columnar decode takes
        return canonical_row(ts, f"{price:.13f}")
    if kind == 7:  # a bare leading or trailing decimal point
        return canonical_row(ts, f"{int(price)}." if rng.random() < 0.5 else f".{int(price * 1000)}")
    if kind == 8:
        return canonical_row(ts, f"+{price:.2f}")
    # only the instrument code padded, on one side
    pad = [" ", "\t"][int(rng.integers(2))]
    return canonical_row(ts, f"{price:.4f}", ric=pad + RIC if rng.random() < 0.5 else RIC + pad)


def reject_row(rng: np.random.Generator, ts: dt.datetime) -> str:
    """A row that every reject reason covers between them."""
    good = canonical_row(ts, "150.25")
    fields = good.split(",")
    bad = [
        ("date", "14/02/2006"), ("date", "02/30/2006"), ("date", "2006-02-14"), ("date", "00/10/2006"),
        ("date", "02/14/0000"), ("date", "02/14/20061"), ("time", "24:00:00.000"), ("time", "12:60:00.000"),
        ("time", "12:00:60.000"), ("time", "12:00:00"), ("time", "12:00:00.1234567"),
        ("offset", "x"), ("offset", "+"), ("offset", ""), ("offset", "1.5"), ("offset", "+-1"),
        ("price", "abc"), ("price", ""), ("price", "1..2"), ("price", "0"), ("price", "-5"),
        ("price", "0.0000"), ("price", "nan"), ("price", "inf"), ("price", "-inf"),
    ]
    j = int(rng.integers(len(bad) + 2))
    if j == len(bad):
        return ",".join(fields[:5])
    if j == len(bad) + 1:
        return good + ",extra"
    which, text = bad[j]
    fields[{"date": 1, "time": 2, "offset": 3, "price": 5}[which]] = text
    return ",".join(fields)


def random_tick_file(seed: int) -> tuple[str, TradingCalendar]:
    rng = np.random.default_rng(seed)
    start = DST_STARTS[seed % len(DST_STARTS)]
    cal = TradingCalendar.from_range(start, start + dt.timedelta(days=int(rng.integers(6, 12))))
    stamps = []
    for day in cal.days:
        if rng.random() < 0.2:
            continue  # an empty day
        day_open, day_close = cal.session_open(day), cal.session_open(day) + (cal.samples_per_day - 1) * HALF_HOUR
        late = int(rng.choice([6, 7, 10])) * 3600_000  # sometimes no tick after the close
        ms = rng.integers(-4 * 3600_000, late, int(rng.integers(3, 40)))
        stamps += [day_open + dt.timedelta(milliseconds=int(m)) for m in ms]
        # exactly at a grid time, at the close, and around the grace limits
        stamps += [day_open + dt.timedelta(minutes=30 * int(k)) for k in rng.integers(0, 14, 3)]
        stamps += [day_close] * int(rng.integers(0, 2))
        for minutes in (-1200, -30, 0, 30):
            edge = day_open + dt.timedelta(minutes=minutes)
            stamps += [edge + dt.timedelta(milliseconds=int(d)) for d in rng.integers(-1, 2, 1)]
        stragglers = rng.integers(1, 600_000, int(rng.integers(0, 3)))
        stamps += [day_close + dt.timedelta(milliseconds=int(m)) for m in stragglers]
    ties = [stamps[int(k)] for k in rng.integers(0, len(stamps), len(stamps) // 8)] if stamps else []
    stamps = sorted(stamps + ties)
    for k in rng.integers(0, max(len(stamps) - 1, 1), len(stamps) // 6):  # some rows out of order
        if k + 1 < len(stamps):
            stamps[k], stamps[k + 1] = stamps[k + 1], stamps[k]

    lines = [HEADER]
    for ts in stamps:
        price = float(100.0 * np.exp(rng.normal(0.0, 0.05)))
        roll = rng.random()
        if roll < 0.75:
            lines.append(canonical_row(ts, f"{price:.{int(rng.integers(0, 5))}f}"))
        elif roll < 0.9:
            lines.append(variant_row(rng, ts, price))
        else:
            lines.append(reject_row(rng, ts))
        if rng.random() < 0.03:
            lines.append(["", "   ", "\t", "# a comment", " #not a comment"][int(rng.integers(5))])
    eol = "\r\n" if rng.random() < 0.5 else "\n"
    text = eol.join(lines) + (eol if rng.random() < 0.8 else "")
    return text, cal


def columns_of(records) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([(ts - EPOCH) // US for _, ts, _ in records], dtype=np.int64),
        np.array([price for _, _, price in records], dtype=np.float64),
    )


def check_parse(stream_new, stream_old) -> tuple[TickColumns, list]:
    """Parse the same text both ways and require equal rows and rejects."""
    ticks, rejects = parse_ticks(stream_new)
    records, expected_rejects = oracle_parse(stream_old)
    t_us, price = columns_of(records)
    assert np.array_equal(ticks.t_us, t_us)
    assert np.array_equal(ticks.price, price)  # bit for bit: every price is finite
    assert [(r.line, r.reason) for r in rejects] == [(line, reason) for line, reason, _ in expected_rejects]
    assert ticks.ric == (records[0][0] if records else "")
    return ticks, records


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_columnar_ingest_matches_row_oracle(seed, caplog):
    text, cal = random_tick_file(seed)
    ticks, records = check_parse(io.StringIO(text), io.StringIO(text))
    for grace_min in GRACES_MIN:
        grace = dt.timedelta(minutes=grace_min)
        caplog.clear()
        try:
            expected, expected_warnings = oracle_resample(records, cal, grace)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                resample(ticks, cal, grace)
            continue
        with caplog.at_level(logging.WARNING, logger="volseg.ingest"):
            series = resample(ticks, cal, grace)
        assert np.array_equal(series.values, np.array(expected)), grace_min
        assert series.grid == cal.grid
        assert [r.getMessage() for r in caplog.records] == expected_warnings, grace_min


@pytest.mark.parametrize("seed", range(40, 46))
def test_file_stream_matches_row_oracle(seed, tmp_path):
    # a file opened in text mode translates CRLF; both parsers see the same lines
    text, _ = random_tick_file(seed)
    path = tmp_path / "ticks.csv"
    path.write_text(text, newline="")
    with open(path) as new, open(path) as old:
        check_parse(new, old)


def test_every_reject_reason_is_covered():
    reasons = [
        reason
        for seed in range(40)
        for _, reason, _ in oracle_parse(io.StringIO(random_tick_file(seed)[0]))[1]
    ]
    for prefix in (
        "expected 6 fields",
        "unparseable date/time",
        "unparseable GMT offset",
        "unparseable price",
        "non-positive price",
    ):
        assert any(r.startswith(prefix) for r in reasons), prefix


def test_prices_round_like_float():
    # 15 digits is the most the columnar decode takes; the 16-digit strings
    # are ones where dividing the digits by a power of ten rounds twice
    prices = [
        "999999999999999", "0.00000000000001", "12345678901234.5", "0149.92", "1", "7.0",
        "978.3519853569937", "963.9076525207723", "992150102866.9401", "96396904874445.27",
    ]
    ts = dt.datetime(2006, 2, 14, 15, 0, tzinfo=UTC)
    text = "\n".join([HEADER, *(canonical_row(ts, p) for p in prices)])
    ticks, _ = check_parse(io.StringIO(text), io.StringIO(text))
    assert list(ticks.price) == [float(p) for p in prices]


@pytest.mark.parametrize("minutes", [(-300, -200), (390, 391, 600)])
def test_no_usable_tick_fails_like_the_oracle(minutes):
    # only far pre-open corrections, or only the close and later
    cal = TradingCalendar.from_range(dt.date(2006, 3, 31), dt.date(2006, 4, 4))
    rows = [
        canonical_row(cal.session_open(day) + dt.timedelta(minutes=m), "100")
        for day in cal.days
        for m in minutes
    ]
    text = "\n".join([HEADER, *rows])
    ticks, records = check_parse(io.StringIO(text), io.StringIO(text))
    with pytest.raises(ValueError) as expected:
        oracle_resample(records, cal, dt.timedelta(minutes=30))
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        resample(ticks, cal, dt.timedelta(minutes=30))


def test_mixed_instruments_raise_like_the_oracle():
    text, cal = random_tick_file(3)
    lines = text.splitlines()
    # a padded code on a row that still parses names the same instrument
    lines.insert(3, " " + canonical_row(cal.session_open(cal.days[0]), "101.5") + " ")
    ticks, _ = check_parse(io.StringIO("\n".join(lines)), io.StringIO("\n".join(lines)))
    assert ticks.ric == RIC
    # another code on a rejected row is no instrument at all
    lines.insert(4, canonical_row(cal.session_open(cal.days[0]), "abc", ric=".DJUSCY"))
    assert parse_ticks(io.StringIO("\n".join(lines)))[0].ric == RIC
    for row in (
        canonical_row(cal.session_open(cal.days[0]), "101.5", ric=".DJUSCY"),
        " .DJUSEN , 02/14/2006 , 14:00:00.0 , +0 , Index , 99 ",
    ):
        mixed = "\n".join(lines[:5] + [row] + lines[5:])
        records, _ = oracle_parse(io.StringIO(mixed))
        with pytest.raises(ValueError) as expected:
            oracle_resample(records, cal, dt.timedelta(minutes=30))
        with pytest.raises(ValueError, match="mixed instrument codes") as got:
            parse_ticks(io.StringIO(mixed))
        assert str(got.value).split(": ")[1] == str(expected.value).split(": ")[1]


# ---------------------------------------------------------------------------
# block edges: parse_ticks reads the stream in blocks of whole lines

BLOCK_SIZES = (1, 7, 64, 4096)
T0 = dt.datetime(2006, 2, 14, 15, 0, tzinfo=UTC)


def minute_rows(count: int, price: str = "100.5") -> list[str]:
    return [canonical_row(T0 + dt.timedelta(minutes=k), price) for k in range(count)]


@pytest.fixture(params=BLOCK_SIZES)
def block(request, monkeypatch):
    monkeypatch.setattr(ingest, "_BLOCK_CHARS", request.param)
    return request.param


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_block_reads_match_row_oracle(seed, block):
    text, _ = random_tick_file(seed)
    check_parse(io.StringIO(text), io.StringIO(text))


@pytest.mark.parametrize("seed", [41, 42])  # LF and CRLF line ends
def test_block_reads_of_a_file_match_row_oracle(seed, block, tmp_path):
    text, _ = random_tick_file(seed)
    path = tmp_path / "ticks.csv"
    path.write_text(text, newline="")
    with open(path) as new, open(path) as old:
        check_parse(new, old)


def test_crlf_split_across_reads(monkeypatch):
    rows = minute_rows(3)
    rows.insert(2, canonical_row(T0, "abc"))  # a reject, so its line number is checked too
    text = "\r\n".join([HEADER, *rows]) + "\r\n"
    crlf_cuts = 0
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(ingest, "_BLOCK_CHARS", size)
        crlf_cuts += text[size - 1] == "\r"  # the first read ends between "\r" and "\n"
        check_parse(io.StringIO(text), io.StringIO(text))
    assert crlf_cuts == text.count("\r\n") == 5


def test_lines_longer_than_a_block(block):
    rows = minute_rows(4)
    rows[1:1] = [
        canonical_row(T0, " " * 5000 + "150.25"),  # padded, so only the per-row checks take it
        canonical_row(T0, "1" * 5000),  # overflows to inf: a non-positive price
        "x" * 9000,
    ]
    text = "\n".join([HEADER, *rows]) + "\n"
    ticks, records = check_parse(io.StringIO(text), io.StringIO(text))
    assert len(ticks) == 5 and ticks.price[1] == 150.25


def test_header_and_blank_lines_in_mid_file(block):
    rows = minute_rows(6)
    rows[2:2] = [HEADER, "", "   ", "\t", "# a comment"]
    rows.insert(9, canonical_row(T0, "0"))
    text = "\n".join([HEADER, *rows]) + "\n"
    _, records = check_parse(io.StringIO(text), io.StringIO(text))
    assert len(records) == 6


@pytest.mark.parametrize("last", ["100.5", "abc"])
def test_no_trailing_newline(block, last):
    text = "\n".join([HEADER, *minute_rows(3), canonical_row(T0, last)])
    check_parse(io.StringIO(text), io.StringIO(text))


@pytest.mark.parametrize("text", ["", HEADER, HEADER + "\n", "\n\n"])
def test_empty_and_header_only_streams(block, text):
    ticks, _ = check_parse(io.StringIO(text), io.StringIO(text))
    assert len(ticks) == 0 and ticks.ric == ""


@pytest.mark.parametrize(
    "odd", [canonical_row(T0, "99", ric=".DJUSCY"), " .DJUSEN , 02/14/2006 , 14:00:00.0 , +0 , Index , 99 "]
)
def test_second_code_in_a_later_block_raises_like_the_oracle(block, odd):
    rows = minute_rows(200)
    rows.insert(150, odd)
    text = "\n".join([HEADER, *rows])
    assert text.index(odd) >= block  # not in the first block
    records, _ = oracle_parse(io.StringIO(text))
    expected = sorted({ric for ric, _, _ in records})
    assert len(expected) == 2
    with pytest.raises(ValueError) as got:
        parse_ticks(io.StringIO(text))
    assert str(got.value) == f"mixed instrument codes in one tick file: {expected}"


def test_rejected_first_row_with_another_code(block):
    # every tenth row, the first one included, is a rejected row of another
    # code; with short blocks many blocks start with one
    rows = minute_rows(60)
    for k in range(0, len(rows), 10):
        rows[k] = canonical_row(T0, "abc", ric=".DJUSCY")
    text = "\n".join([HEADER, *rows]) + "\n"
    ticks, _ = check_parse(io.StringIO(text), io.StringIO(text))
    assert ticks.ric == RIC
