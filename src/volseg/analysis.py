"""Comparative analytics over clustered segmentations of many sectors.

Everything here consumes a PhaseTimeline: the per-sector sequence of
color runs obtained by merging adjacent segments that share a cluster.
On top of it sit the working definitions used throughout:

    recovery  start of the first sustained low-volatility (growth) run
              after which growth predominates
    onset     end of the last sustained growth run
    shock     maximal run of a given high-volatility class, dated and
              weighted by the divergence of its leading boundary

Durations are measured in half-hours (14 per trading day); "two
months" defaults to 42 trading days = 588 half-hours.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .artifacts import write_csv
from .calendar import TradingCalendar
from .cluster import COLOR_LADDER, PHASE_BY_COLOR, ClusterAssignment
from .divergence import Boundary
from .segmenter import Segment

log = logging.getLogger(__name__)

TWO_MONTHS_HALF_HOURS = 42 * 14  # 42 trading days
DEFAULT_MATCH_WINDOW = 20 * 14  # +-20 trading days, in half-hours

SHOCK_CLASS_COLOR = {
    "high": "yellow",
    "very-high": "orange",
    "extremely-high": "red",
}


@dataclass(frozen=True)
class Run:
    """A maximal stretch of same-colored segments, [start, end) in returns."""

    start: int
    end: int
    start_ts: dt.datetime
    end_ts: dt.datetime
    color: str
    phase: str

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class PhaseTimeline:
    """One sector's color runs, which tile its series in order."""

    sector: str
    runs: tuple[Run, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.runs, self.runs[1:]):
            if b.start != a.end:
                raise ValueError("runs must tile the series span")
            if b.color == a.color:
                raise ValueError("adjacent runs must differ in color")

    @property
    def start(self) -> int:
        return self.runs[0].start

    @property
    def end(self) -> int:
        return self.runs[-1].end


@dataclass(frozen=True)
class Shock:
    """A run of one volatility class in one sector, with the divergence
    of the boundary that opens it."""

    sector: str
    klass: str
    start: int
    start_ts: dt.datetime
    duration: int  # half-hours
    delta: float | None  # leading-boundary divergence; None at series start
    delta_err: float | None


@dataclass(frozen=True)
class RateEvent:
    """A change of the policy rate on ``date``."""

    date: dt.date
    change: float  # signed percent
    new_rate: float  # percent


@dataclass(frozen=True)
class EventResponse:
    """How one sector's volatility responded to one rate event, and the
    nearest transition in its window (None when there is none)."""

    sector: str
    event: RateEvent
    classification: str  # effective | counter-effective | ineffective
    anticipatory: bool
    boundary_ts: dt.datetime | None
    from_color: str | None
    to_color: str | None


@dataclass(frozen=True)
class PhaseDate:
    """A recovery or an onset.  Censored when the qualifying growth run
    opens the timeline (recovery) or closes it (onset): the transition
    lies outside the window, and ``date`` is the window's edge."""

    date: dt.date
    censored: bool


def build_timeline(
    segments: Sequence[Segment],
    assignment: ClusterAssignment,
    grid: Sequence[dt.datetime],
    sector: str = "",
) -> PhaseTimeline:
    """Merge adjacent same-cluster segments into color runs.

    ``grid`` holds the level-series timestamps; a run over return
    indices [s, e) spans grid[s] to grid[e], and only these run edges
    are read.
    """
    if len(segments) != len(assignment.labels):
        raise ValueError("one cluster label per segment required")
    if not assignment.colors:
        raise ValueError("assignment has no colors; run assign_phases first")
    spans: list[list] = []  # [start, end, color] of each run
    for seg, lab in zip(segments, assignment.labels):
        color = assignment.colors[lab]
        if spans and spans[-1][2] == color:
            spans[-1][1] = seg.end
        else:
            spans.append([seg.start, seg.end, color])
    return PhaseTimeline(sector, tuple(Run(s, e, grid[s], grid[e], c, PHASE_BY_COLOR[c]) for s, e, c in spans))


def find_recovery(timeline: PhaseTimeline, min_run: int, predominance: float) -> PhaseDate | None:
    """Start of the first sustained growth run after which growth
    dominates; censored if it is the timeline's first run (the sector was
    already in growth when the timeline starts).

    A candidate run must last at least ``min_run`` half-hours and the
    growth share of the remaining timeline (run start to the end) must
    reach ``predominance``.
    """
    total_end = timeline.end
    for i, run in enumerate(timeline.runs):
        if run.phase != "growth" or run.duration < min_run:
            continue
        span = total_end - run.start
        growth = sum(
            r.duration for r in timeline.runs[i:] if r.phase == "growth"
        )
        if span > 0 and growth / span >= predominance:
            return PhaseDate(run.start_ts.date(), i == 0)
    return None


def detect_recovery(
    timeline: PhaseTimeline,
    min_run: int = TWO_MONTHS_HALF_HOURS,
    predominance: float = 0.5,
) -> dt.date | None:
    """The date of ``find_recovery``, censored or not."""
    found = find_recovery(timeline, min_run, predominance)
    return None if found is None else found.date


def detect_onset(
    timeline: PhaseTimeline, min_run: int = TWO_MONTHS_HALF_HOURS
) -> PhaseDate | None:
    """End of the final sustained growth run; censored if the timeline
    ends inside it (the decline has not been observed)."""
    for i in range(len(timeline.runs) - 1, -1, -1):
        run = timeline.runs[i]
        if run.phase == "growth" and run.duration >= min_run:
            censored = i == len(timeline.runs) - 1
            if censored:
                log.warning(
                    "%s: timeline ends inside a growth run; onset censored",
                    timeline.sector,
                )
            return PhaseDate(run.end_ts.date(), censored)
    return None


def extract_shocks(
    timeline: PhaseTimeline,
    boundaries: Sequence[Boundary],
    klass: str,
) -> list[Shock]:
    """Runs of a volatility class, dated and strength-tagged.

    Adjacent runs differ in color, so each run of the class's color is
    one maximal shock.  The strength is the divergence of the boundary
    at the shock's left edge; a shock at the very start of the series
    has none.
    """
    if klass not in SHOCK_CLASS_COLOR:
        raise ValueError(f"unknown shock class {klass!r}")
    color = SHOCK_CLASS_COLOR[klass]
    by_position = {b.position: b for b in boundaries}

    shocks: list[Shock] = []
    for run in timeline.runs:
        if run.color != color:
            continue
        boundary = by_position.get(run.start)
        if boundary is None and run.start != timeline.start:
            log.warning("%s: no boundary found at shock start %d", timeline.sector, run.start)
        shocks.append(
            Shock(
                sector=timeline.sector,
                klass=klass,
                start=run.start,
                start_ts=run.start_ts,
                duration=run.duration,
                delta=boundary.divergence if boundary else None,
                delta_err=boundary.divergence_err if boundary else None,
            )
        )
    return shocks


@dataclass(frozen=True)
class MatchedGroup:
    """Shocks across sectors attributed to one underlying event."""

    reference: int  # median start index of the members
    shocks: tuple[Shock, ...]  # one per participating sector
    missing: tuple[str, ...]  # sectors with no shock in the window


def match_shocks(
    shocks_by_sector: Mapping[str, Sequence[Shock]],
    window: int = DEFAULT_MATCH_WINDOW,
) -> list[MatchedGroup]:
    """Group per-sector shocks whose starts fall within ``window``
    half-hours of a common reference (the median start of the group).

    Greedy and deterministic: the earliest unassigned shock seeds a
    group, each sector contributes its nearest unassigned shock to the
    provisional reference, and missing sectors are kept in
    ``MatchedGroup.missing``, not imputed.  Requires all sectors to
    share one sampling grid.
    """
    if len(shocks_by_sector) < 1:
        raise ValueError("need at least one sector")
    sectors = sorted(shocks_by_sector)
    unassigned: set[tuple[str, int]] = set()
    pool: dict[tuple[str, int], Shock] = {}
    for sec in sectors:
        for idx, s in enumerate(shocks_by_sector[sec]):
            pool[(sec, idx)] = s
            unassigned.add((sec, idx))

    def median(values: list[int]) -> int:
        vals = sorted(values)
        return vals[(len(vals) - 1) // 2]  # lower median: deterministic

    groups: list[MatchedGroup] = []
    while unassigned:
        seed_key = min(unassigned, key=lambda k: (pool[k].start, k[0], k[1]))
        seed = pool[seed_key]
        # provisional group: earliest unassigned per sector within a
        # forward window of the seed
        provisional: dict[str, tuple[str, int]] = {seed_key[0]: seed_key}
        for sec in sectors:
            if sec == seed_key[0]:
                continue
            cands = [
                k
                for k in unassigned
                if k[0] == sec and seed.start <= pool[k].start <= seed.start + window
            ]
            if cands:
                provisional[sec] = min(cands, key=lambda k: (pool[k].start, k[1]))
        ref = median([pool[k].start for k in provisional.values()])
        # final membership: per sector, nearest unassigned within +-window of ref
        members: dict[str, tuple[str, int]] = {seed_key[0]: seed_key}
        for sec in sectors:
            if sec == seed_key[0]:
                continue
            cands = [
                k for k in unassigned if k[0] == sec and abs(pool[k].start - ref) <= window
            ]
            if cands:
                members[sec] = min(cands, key=lambda k: (abs(pool[k].start - ref), pool[k].start, k[1]))
        chosen = [members[sec] for sec in sorted(members)]
        groups.append(
            MatchedGroup(
                reference=median([pool[k].start for k in chosen]),
                shocks=tuple(pool[k] for k in chosen),
                missing=tuple(sec for sec in sectors if sec not in members),
            )
        )
        unassigned -= set(chosen)
    groups.sort(key=lambda g: g.reference)
    return groups


# ---------------------------------------------------------------------------
# order statistics


def average_ranks(values: Sequence[float], descending: bool = False) -> list[float]:
    """1-based ranks with ties sharing their average rank."""
    n = len(values)
    order = sorted(range(n), key=lambda i: -values[i] if descending else values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Spearman correlation with average-rank ties; None if degenerate."""
    if len(x) != len(y):
        raise ValueError("paired samples required")
    n = len(x)
    if n < 2:
        return None
    rx = average_ranks(x)
    ry = average_ranks(y)
    mx = sum(rx) / n
    my = sum(ry) / n
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx <= 0.0 or syy <= 0.0:
        return None
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return sxy / math.sqrt(sxx * syy)


@dataclass(frozen=True)
class RankTable:
    """The ranks of a matched group's shocks, and the correlations of
    duration and strength with start (None below three shocks)."""

    rows: tuple[dict[str, object], ...]  # sector, start_rank, duration_rank, strength_rank
    rho_duration_vs_start: float | None
    rho_strength_vs_start: float | None


def rank_table(group: MatchedGroup) -> RankTable:
    """Rank the group's shocks (1 = earliest / longest / strongest) and
    correlate duration and strength against start.

    Correlations are reported only for groups of three or more; they
    are computed on the raw values, so rank 1 meaning "longest" still
    yields rho = -1 when earlier shocks run longer.
    """
    shocks = group.shocks
    starts = [float(s.start) for s in shocks]
    durations = [float(s.duration) for s in shocks]
    start_ranks = average_ranks(starts)
    duration_ranks = average_ranks(durations, descending=True)
    with_delta = [s for s in shocks if s.delta is not None]
    strength_ranks: dict[str, float] = {}
    if with_delta:
        ranks = average_ranks([s.delta for s in with_delta], descending=True)
        strength_ranks = {s.sector: r for s, r in zip(with_delta, ranks)}
    rows = tuple(
        {
            "sector": s.sector,
            "start_rank": start_ranks[i],
            "duration_rank": duration_ranks[i],
            "strength_rank": strength_ranks.get(s.sector),
        }
        for i, s in enumerate(shocks)
    )
    rho_d = rho_s = None
    if len(shocks) >= 3:
        rho_d = spearman_rho(durations, starts)
        if len(with_delta) >= 3:
            rho_s = spearman_rho(
                [s.delta for s in with_delta], [float(s.start) for s in with_delta]
            )
    return RankTable(rows, rho_d, rho_s)


# ---------------------------------------------------------------------------
# rate events


def load_rate_events(path: str | Path) -> list[RateEvent]:
    """Read events (date,change,new_rate) and check rate continuity.

    Raises ``ValueError`` naming ``path`` on a missing column, on a row
    whose cells do not parse or hold a non-finite rate (with its line) and
    on a broken rate chain.
    """
    events: list[RateEvent] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("date", "change", "new_rate") if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: rate events lack columns {missing}")
        for rec in reader:
            try:
                event = RateEvent(
                    date=dt.date.fromisoformat(rec["date"]),
                    change=float(rec["change"]),
                    new_rate=float(rec["new_rate"]),
                )
            except (TypeError, ValueError) as exc:  # TypeError: a short row's missing cells
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
            if not (math.isfinite(event.change) and math.isfinite(event.new_rate)):
                raise ValueError(
                    f"{path}: line {reader.line_num}: non-finite rate "
                    f"(change {rec['change']!r}, new_rate {rec['new_rate']!r})"
                )
            events.append(event)
    events.sort(key=lambda e: e.date)
    for prev, cur in zip(events, events[1:]):
        if abs(prev.new_rate + cur.change - cur.new_rate) > 1e-9:
            raise ValueError(
                f"{path}: inconsistent rate sequence at {cur.date}: "
                f"{prev.new_rate} + {cur.change} != {cur.new_rate}"
            )
    return events


def classify_event_responses(
    timelines: Mapping[str, PhaseTimeline],
    events: Sequence[RateEvent],
    cal: TradingCalendar,
    window_days: int = 2,
    anticipation_days: int = 5,
) -> list[EventResponse]:
    """Classify each sector's volatility response to each rate event.

    A transition into a lower volatility class within ``window_days``
    trading days of the event is effective, into a higher class
    counter-effective, otherwise ineffective.  The nearest transition
    decides when several fall inside the window.  A transition in the
    anticipation band (more than ``window_days`` but at most
    ``anticipation_days`` before the event) sets the anticipatory flag.
    Events outside a timeline's span are skipped with a warning.
    """
    responses: list[EventResponse] = []
    for sector in sorted(timelines):
        tl = timelines[sector]
        span_lo = tl.runs[0].start_ts.date()
        span_hi = tl.runs[-1].end_ts.date()
        transitions = [
            (a.end_ts, a.color, b.color) for a, b in zip(tl.runs, tl.runs[1:])
        ]
        for event in events:
            if not span_lo <= event.date <= span_hi:
                log.warning("%s: event %s outside timeline span, skipped", tl.sector, event.date)
                continue
            in_window: list[tuple[int, dt.datetime, str, str]] = []
            anticipatory = False
            for ts, c_from, c_to in transitions:
                offset = cal.trading_days_between(event.date, ts.date())
                if abs(offset) <= window_days:
                    in_window.append((offset, ts, c_from, c_to))
                elif -anticipation_days <= offset < -window_days:
                    anticipatory = True
            if in_window:
                offset, ts, c_from, c_to = min(
                    in_window, key=lambda t: (abs(t[0]), t[0], t[1])
                )
                direction = COLOR_LADDER.index(c_to) - COLOR_LADDER.index(c_from)
                classification = "effective" if direction < 0 else "counter-effective"
                responses.append(
                    EventResponse(
                        tl.sector, event, classification, anticipatory, ts, c_from, c_to
                    )
                )
            else:
                responses.append(
                    EventResponse(tl.sector, event, "ineffective", anticipatory, None, None, None)
                )
    return responses


# ---------------------------------------------------------------------------
# file formats


def write_phase_dates_csv(results: Mapping[str, PhaseDate | None], path: str | Path) -> None:
    """Each sector's recovery (or onset) date and whether it is censored;
    a sector with none has an empty date."""
    rows = ((s, None, False) if r is None else (s, r.date, r.censored) for s, r in sorted(results.items()))
    write_csv(path, ("sector", "date", "censored"), rows)


def write_shock_csv(shocks: Iterable[Shock], path: str | Path) -> None:
    rows = (
        (s.sector, s.klass, s.start_ts, s.duration, s.delta, s.delta_err)
        for s in sorted(shocks, key=lambda s: (s.sector, s.start))
    )
    write_csv(path, ("sector", "class", "start", "duration", "delta", "delta_err"), rows)


def write_rank_csv(tables: Sequence[RankTable], path: str | Path) -> None:
    header = (
        "group", "sector", "start_rank", "duration_rank", "strength_rank",
        "rho_duration_vs_start", "rho_strength_vs_start",
    )
    rows = (
        (
            g, row["sector"], row["start_rank"], row["duration_rank"], row["strength_rank"],
            table.rho_duration_vs_start, table.rho_strength_vs_start,
        )
        for g, table in enumerate(tables)
        for row in table.rows
    )
    write_csv(path, header, rows)


def write_event_csv(responses: Iterable[EventResponse], path: str | Path) -> None:
    header = ("sector", "event_date", "classification", "anticipatory", "boundary_ts", "from_color", "to_color")
    rows = (
        (r.sector, r.event.date, r.classification, r.anticipatory, r.boundary_ts, r.from_color, r.to_color)
        for r in responses
    )
    write_csv(path, header, rows)


def write_plotdata_csv(timelines: Mapping[str, PhaseTimeline], path: str | Path) -> None:
    """Runs of every sector as (sector, start, end, color, phase) rows,
    sorted by sector then start; drives external plotting tools."""
    rows = (
        (timelines[s].sector, run.start_ts, run.end_ts, run.color, run.phase)
        for s in sorted(timelines)
        for run in timelines[s].runs
    )
    write_csv(path, ("sector", "start", "end", "color", "phase"), rows)
