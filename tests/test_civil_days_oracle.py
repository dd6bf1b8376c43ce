"""``ingest._civil_days`` against numpy's calendar and ``datetime.date``.

Every day of years 1-9999 must map to numpy's day number and be valid.
Days 29-31 of every month of one 400-year cycle, and days 0-32 of months
0-13 in leap and common years, centuries and the edge years, must be
valid exactly when ``datetime.date`` accepts them, and then count the
same days since 1970-01-01.
"""

import datetime as dt
import itertools

import numpy as np
import pytest

from volseg.ingest import _civil_days

EPOCH = dt.date(1970, 1, 1)


@pytest.mark.parametrize("first_year", range(1, 10_000, 1000))
def test_every_day_of_every_year(first_year):
    first = np.datetime64(f"{first_year:04d}-01-01")
    last = np.datetime64(f"{min(first_year + 999, 9999):04d}-12-31")
    days = np.arange(first, last + 1)
    months = days.astype("datetime64[M]")
    year = days.astype("datetime64[Y]").astype(np.int64) + 1970
    month = months.astype(np.int64) % 12 + 1
    day = (days - months.astype("datetime64[D]")).astype(np.int64) + 1
    got, ok = _civil_days(year, month, day)
    assert ok.all()
    assert np.array_equal(got, days.astype(np.int64))


def assert_like_datetime(triples) -> None:
    year, month, day = (np.array(column, dtype=np.int64) for column in zip(*triples))
    got, ok = _civil_days(year, month, day)
    for (y, m, d), count, valid in zip(triples, got.tolist(), ok.tolist()):
        try:
            expected = (dt.date(y, m, d) - EPOCH).days
        except ValueError:
            assert not valid, (y, m, d)
        else:
            assert valid and count == expected, (y, m, d)


def test_month_ends_of_a_400_year_cycle():
    assert_like_datetime(list(itertools.product(range(2000, 2400), range(1, 13), (29, 30, 31))))


def test_out_of_range_fields():
    years = (0, 1, 4, 100, 400, 1600, 1900, 1970, 2000, 2004, 2100, 9999)
    assert_like_datetime(list(itertools.product(years, range(14), range(33))))
