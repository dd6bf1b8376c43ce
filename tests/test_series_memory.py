"""Memory held by resampling and by the series writers, read by tracemalloc.

A paper-length series (2,254 trading days, 31,556 grid times) is resampled
on a calendar whose datetime grid and ``grid_us`` are already built, as
every ingest builds them before resampling.  Resampling may keep only the
values and one fixed-width row of ISO bytes per grid time: no text object
per sample.  Writing both series files may then allocate at most about
what one chunk of rows takes, well under one row's text for every sample.
Both bounds are in bytes that tracemalloc counts, so they do not move with
the process's RSS.
"""

import datetime as dt
import gc
import tracemalloc

import numpy as np

from conftest import weekday_calendar
from volseg.ingest import TickColumns, resample, series_to_csv, series_to_json

PAPER_DAYS = 2254
# Bytes a series may keep per grid time: its float64 value and at most
# 32 bytes of isoformat() text (a grid time with microseconds).
RETAINED_PER_SAMPLE = 8 + 32
# Room for the series object and the array headers.
SLACK = 64 * 1024
# Bytes the writers may allocate at their peak: they took 0.73 MB at any
# length with 4,096-row chunks, against 1.8 MB for the text of the CSV rows
# alone at this length.
WRITE_PEAK = 1 << 20


def paper_series():
    cal = weekday_calendar(dt.date(2000, 2, 1), PAPER_DAYS)
    cal.grid, cal.grid_us
    t_us = (cal.grid_us - 1).ravel()
    ticks = TickColumns(".DJUSBM", t_us, np.round(np.linspace(100.0, 200.0, len(t_us)), 4))
    return cal, ticks


def test_resample_retains_no_text():
    cal, ticks = paper_series()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series = resample(ticks, cal)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert series.n == len(cal) == PAPER_DAYS * 14
    assert retained <= RETAINED_PER_SAMPLE * series.n + SLACK


def test_writers_peak_within_a_chunk_bound(tmp_path):
    cal, ticks = paper_series()
    series = resample(ticks, cal)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series_to_csv(series, tmp_path / "s.csv")
        series_to_json(series, tmp_path / "s.json")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (tmp_path / "s.csv").stat().st_size > 1_000_000
    assert peak <= WRITE_PEAK
