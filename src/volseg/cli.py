"""Command-line pipeline: ingest | segment | cluster | analyze | pipeline.

Every run is a pure function of (inputs, flags, seed): outputs are
byte-identical across reruns, and the resolved configuration is written
next to the artifacts for provenance.  Exit codes: 0 ok, 1 usage,
2 data error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import gc
import json
import logging
import math
import os
import sys
import time
from pathlib import Path
from typing import Sequence

# volseg makes no BLAS call, so numpy's OpenBLAS needs no worker threads:
# an idle pool costs CPU time in every process.  Set before numpy first
# executes; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import _lazy, artifacts

# the stages, and the calendar and divergence they share, execute on first
# use, so each command executes only its own
calendar = _lazy("volseg.calendar")
divergence = _lazy("volseg.divergence")
ingest = _lazy("volseg.ingest")
segmenter = _lazy("volseg.segmenter")
cluster = _lazy("volseg.cluster")
analysis = _lazy("volseg.analysis")
np = _lazy("numpy")
log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_resolved_config(args: argparse.Namespace, outdir: Path) -> None:
    artifacts.write_json(
        outdir / "resolved_config.json", {k: v for k, v in vars(args).items() if k != "func"}
    )


# the JSON values a typed option takes from a config file
_CONFIG_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _config_value_problem(action: argparse.Action, value: object) -> str | None:
    """Why a config-file ``value`` cannot stand for ``action``'s option, or
    None: a switch takes a boolean, a typed option a JSON number of its
    type, any other option a string, and a list option a list of these.
    An option whose default is None also takes null."""
    if action.nargs == 0:
        return None if isinstance(value, bool) else "is not true or false"
    if value is None and action.default is None:
        return None
    if action.nargs in ("+", "*"):
        if not isinstance(value, list):
            return "is not a list"
        items = value
    else:
        items = [value]
    kinds, noun = _CONFIG_KINDS.get(action.type, ((str,), "a string"))
    for item in items:
        if isinstance(item, bool) or not isinstance(item, kinds):
            return f"is not {noun}"
    return None


def _apply_config_file(
    parser: argparse.ArgumentParser,
    subparsers: dict[str, argparse.ArgumentParser],
    argv: list[str],
) -> argparse.Namespace:
    """Resolve precedence flags > config file > defaults.

    The config file only changes subcommand *defaults*; a second parse
    of the same argv lets explicitly given flags win naturally.
    """
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            overrides = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise ValueError(f"{args.config}: cannot read config file: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: config file holds a JSON {type(overrides).__name__}, not an object")
        sub = subparsers[args.command]
        actions = {action.dest: action for action in sub._actions}
        normalized = {}
        for key, value in overrides.items():
            dest = key.replace("-", "_")
            if dest not in actions:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            problem = _config_value_problem(actions[dest], value)
            if problem:
                raise ValueError(f"{args.config}: config key {key!r}: {value!r} {problem}")
            normalized[dest] = value
        sub.set_defaults(**normalized)
        args = parser.parse_args(argv)
    return args


# ---------------------------------------------------------------------------
# calendar plumbing


def _write_calendar(cal: calendar.TradingCalendar, path: Path) -> None:
    payload = {
        "days": [d.isoformat() for d in cal.days],
        "samples_per_day": cal.samples_per_day,
        "open_local": cal.open_local.isoformat(timespec="minutes"),
        "tz": cal.tz,
    }
    artifacts.write_json(path, payload)


def _read_calendar(path: Path) -> calendar.TradingCalendar:
    try:
        payload = json.loads(path.read_text())
        return calendar.TradingCalendar(
            days=tuple(dt.date.fromisoformat(d) for d in payload["days"]),
            samples_per_day=payload["samples_per_day"],
            open_local=dt.time.fromisoformat(payload["open_local"]),
            tz=payload["tz"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed calendar ({type(exc).__name__}: {exc})") from exc


# ---------------------------------------------------------------------------
# stages: each takes and returns objects and writes its own artifacts


def _utc_date(t_us: int) -> dt.date:
    return (dt.datetime(1970, 1, 1) + dt.timedelta(microseconds=t_us)).date()


def _undecodable(path: Path, encoding: str, exc: UnicodeDecodeError) -> str:
    """The 1-based line and the first byte of ``path`` that ``encoding``
    cannot decode.  A stream read in blocks places ``exc`` within its
    block, so the file's bytes are decoded again, whole."""
    raw = path.read_bytes()
    try:
        raw.decode(encoding)
    except UnicodeDecodeError as whole:
        head = raw[: whole.start].decode(encoding)
        line = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1  # text mode's lines
        byte = raw[whole.start]
        return f"line {line}: cannot decode byte 0x{byte:02x} as {whole.encoding} ({whole.reason})"
    return str(exc)  # the file changed since it was read


def _existing(paths: Sequence[str]) -> list[Path]:
    paths = [Path(p) for p in paths]
    for p in paths:
        if not p.exists():
            raise ValueError(f"input file not found: {p}")
    return paths


def _hold(sources: dict[str, Path], sector: object, path: Path) -> None:
    """Record that ``path`` holds ``sector``.  A sector names its output
    files, so one that is not a nonempty string other than ``.`` and
    ``..``, without ``/``, ``\\`` or NUL, is a data error naming ``path``;
    one already held is a data error naming both files."""
    if not isinstance(sector, str) or sector in ("", ".", "..") or any(c in sector for c in "/\\\0"):
        raise ValueError(f"{path}: sector {sector!r} cannot name an output file")
    if sector in sources:
        raise ValueError(f"{sources[sector]} and {path} both hold sector {sector}")
    sources[sector] = path


# the least value of each integer option whose limits do not depend on the data
_AT_LEAST = {
    "samples_per_day": 1, "pre_open_grace_min": 0, "max_opt_iters": 0, "k_min": 1, "min_run_days": 1,
    "match_window_days": 0, "event_window_days": 0, "anticipation_days": 0, "min_seg": 4,
}


def _check_ranges(args: argparse.Namespace) -> None:
    """Raise a data error naming the option and its range when an option
    of the command lies outside the limits that hold whatever the data.
    The limits the calendar sets are checked in ``_ingest`` once it is built."""
    given = vars(args)
    for dest, least in _AT_LEAST.items():
        if dest in given and given[dest] < least:
            raise ValueError(f"--{dest.replace('_', '-')} {given[dest]} is out of range: it must be at least {least}")
    if "k_max" in given and args.k_max < args.k_min:
        raise ValueError(f"--k-max {args.k_max} is out of range: it must be at least --k-min ({args.k_min})")
    if "predominance" in given and not 0 < args.predominance <= 1:
        raise ValueError(
            f"--predominance {args.predominance} is out of range: it must be greater than 0 and at most 1"
        )
    if "long_seg" in given and args.long_seg < args.min_seg:
        raise ValueError(f"--long-seg {args.long_seg} is out of range: it must be at least --min-seg ({args.min_seg})")
    if "cutoff" in given and not 0 < args.cutoff < math.inf:
        raise ValueError(f"--cutoff {args.cutoff} is out of range: it must be positive and finite")
    if "shock_classes" in given:
        classes = [klass.strip() for klass in args.shock_classes.split(",")]
        for i, klass in enumerate(classes):
            if klass not in analysis.SHOCK_CLASS_COLOR:
                known = ", ".join(analysis.SHOCK_CLASS_COLOR)
                raise ValueError(f"--shock-classes {args.shock_classes}: class {klass!r} is not one of {known}")
            if klass in classes[:i]:
                raise ValueError(f"--shock-classes {args.shock_classes}: class {klass!r} is given twice")
    dates = {}
    for dest in ("start", "end"):
        if given.get(dest):  # an empty bound is not given, as in _ingest
            try:
                dates[dest] = dt.date.fromisoformat(given[dest])
            except ValueError as exc:
                raise ValueError(f"--{dest} {given[dest]} is not an ISO date ({exc})") from exc
    if len(dates) == 2 and dates["start"] > dates["end"]:
        raise ValueError(f"--end {args.end} is out of range: it must be on or after --start ({args.start})")


def _ingest(args: argparse.Namespace) -> tuple[calendar.TradingCalendar, list[ingest.HalfHourSeries]]:
    """Resample every tick file and write the series; returns the calendar and the series, sorted by sector."""
    outdir = Path(args.out)
    series_dir = outdir / "series"
    manifest: dict[str, dict] = {}

    parsed = []
    sources: dict[str, Path] = {}
    for path in _existing(args.inputs):
        with open(path) as fh:
            try:
                ticks, rejects = ingest.parse_ticks(fh)
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {_undecodable(path, fh.encoding, exc)}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        if not len(ticks):
            raise ValueError(f"{path}: no parseable tick records")
        _hold(sources, ingest.sector_from_ric(ticks.ric), path)
        parsed.append((path, ticks, rejects))

    holidays = calendar.load_holidays(args.holidays) if args.holidays else ()
    # a bound not given is the date of the first or last tick
    if args.start:
        start = dt.date.fromisoformat(args.start)
    else:
        start = _utc_date(min(int(t.t_us.min()) for _, t, _ in parsed))
    if args.end:
        end = dt.date.fromisoformat(args.end)
    else:
        end = _utc_date(max(int(t.t_us.max()) for _, t, _ in parsed))
    cal = calendar.TradingCalendar.from_range(start, end, holidays, args.samples_per_day)
    # a session's last sample must come before the next session's open
    step = calendar.HALF_HOUR // calendar.MICROSECOND
    gaps = np.diff(cal.grid_us[:, 0])
    to_open = cal.grid_us[1:, 0] - cal.grid_us[:-1, -1]  # from each close to the next open
    if len(to_open) and to_open.min() <= 0:
        d = int(to_open.argmin())
        raise ValueError(
            f"--samples-per-day {args.samples_per_day} is out of range: the session of {cal.days[d]} "
            f"would reach the open of {cal.days[d + 1]}; at most {-(-int(gaps[d]) // step)} samples "
            "per day fit this calendar"
        )
    # the grace must not reach back past the previous session's close; at
    # 48 samples a day the default grace reaches back exactly to it
    minute = dt.timedelta(minutes=1) // calendar.MICROSECOND
    if len(to_open) and args.pre_open_grace_min * minute > int(to_open.min()):
        d = int(to_open.argmin())
        raise ValueError(
            f"--pre-open-grace-min {args.pre_open_grace_min} is out of range: the open of {cal.days[d + 1]} "
            f"would reach back past the close of {cal.days[d]}; at most {int(to_open[d]) // minute} "
            "minutes fit this calendar"
        )

    grace = dt.timedelta(minutes=args.pre_open_grace_min)
    series_dir.mkdir(parents=True, exist_ok=True)

    all_series = []
    while parsed:
        path, ticks, rejects = parsed.pop(0)  # each file's ticks are freed once its series is written
        series = ingest.resample(ticks, cal, grace)
        ingest.series_to_csv(series, series_dir / f"{series.sector}.csv")
        ingest.series_to_json(series, series_dir / f"{series.sector}.json")
        ingest.write_reject_log(rejects, series_dir / f"{series.sector}.rejects.csv")
        manifest[series.sector] = {
            "source": str(path), "ticks": len(ticks), "rejects": len(rejects), "samples": series.n
        }
        all_series.append(series)
    _write_calendar(cal, outdir / "calendar.json")
    artifacts.write_json(outdir / "manifest.json", manifest)
    for sector in sorted(manifest):
        m = manifest[sector]
        print(f"{sector}: {m['ticks']} ticks -> {m['samples']} samples, {m['rejects']} rejects")
    return cal, sorted(all_series, key=lambda s: s.sector)


def _segment_config(args: argparse.Namespace) -> segmenter.SegmentationConfig:
    return segmenter.SegmentationConfig(
        cutoff=args.cutoff,
        min_segment_len=args.min_seg,
        long_segment_len=args.long_seg,
        max_opt_iters=args.max_opt_iters,
    )


def _segment(
    args: argparse.Namespace, series: ingest.HalfHourSeries, source: object
) -> segmenter.SegmentationResult:
    """Segment one series, write its tables and return the result; errors name ``source``."""
    seg_dir = Path(args.out) / "segments"
    seg_dir.mkdir(parents=True, exist_ok=True)
    cfg = _segment_config(args)
    try:
        returns = ingest.log_returns(series)
        result = segmenter.recursive_segment(returns, cfg)
        log.debug(
            "%s: recursion: %d scan(s), %d point(s) scanned, %d side term(s) computed", series.sector,
            result.scans, result.scan_points, result.term_points,
        )
        start = time.perf_counter()
        result = segmenter.refine_long_segments(returns, result, cfg)
        # wall time is not deterministic: it goes to the log, never to --out
        log.debug(
            "%s: refinement: %d long window(s), %d scan(s), %.4f s", series.sector,
            result.refine_windows, result.refine_scans, time.perf_counter() - start,
        )
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc
    rows = segmenter.emit_segment_table(result, series.grid)
    segmenter.write_segment_csv(rows, seg_dir / f"{series.sector}.csv")
    segmenter.write_segment_json(rows, seg_dir / f"{series.sector}.json", series.sector, cfg, result.converged)
    print(f"{series.sector}: {len(result.segments)} segments")
    return result


def _cluster(args: argparse.Namespace, sector: str, stats: list[divergence.SegmentStats]) -> cluster.ClusterAssignment:
    """Cluster one sector's segments, write its cluster files and return the assignment."""
    cl_dir = Path(args.out) / "clusters"
    cl_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    tree = cluster.complete_link(stats)
    # wall time is not deterministic: it goes to the log, never to --out
    log.debug(
        "%s: complete_link: %d leaf(s), %d merge(s), %.4f s", sector,
        tree.n_leaves, len(tree.merges), time.perf_counter() - start,
    )
    k_hi = min(args.k_max, tree.n_leaves)
    assignment, report = cluster.extract_clusters(tree, stats, range(min(args.k_min, k_hi), k_hi + 1))
    assignment = cluster.assign_phases(assignment)
    cluster.dendrogram_to_json(tree, cl_dir / f"{sector}.dendrogram.json", sector)
    cluster.write_merges_csv(tree, cl_dir / f"{sector}.merges.csv")
    cluster.write_assignment_csv(assignment, cl_dir / f"{sector}.assignment.csv")
    cluster.write_robustness_json(report, cl_dir / f"{sector}.robustness.json", assignment)
    print(f"{sector}: {assignment.k} clusters")
    return assignment


def _analyze(
    args: argparse.Namespace,
    cal: calendar.TradingCalendar,
    timelines: dict[str, analysis.PhaseTimeline],
    boundaries: dict[str, Sequence[divergence.Boundary]],
) -> None:
    """Cross-sector analytics over the timelines; writes the analysis bundle."""
    an_dir = Path(args.out) / "analysis"
    an_dir.mkdir(parents=True, exist_ok=True)
    min_run = args.min_run_days * cal.samples_per_day
    recovery = {s: analysis.find_recovery(t, min_run, args.predominance) for s, t in timelines.items()}
    onset = {s: analysis.detect_onset(t, min_run) for s, t in timelines.items()}
    analysis.write_phase_dates_csv(recovery, an_dir / "recovery.csv")
    analysis.write_phase_dates_csv(onset, an_dir / "onset.csv")

    all_shocks: list[analysis.Shock] = []
    tables: list[analysis.RankTable] = []
    for klass in args.shock_classes.split(","):
        klass = klass.strip()
        per_sector = {s: analysis.extract_shocks(t, boundaries[s], klass) for s, t in timelines.items()}
        for shocks in per_sector.values():
            all_shocks.extend(shocks)
        groups = analysis.match_shocks(per_sector, args.match_window_days * cal.samples_per_day)
        tables.extend(analysis.rank_table(g) for g in groups)
    analysis.write_shock_csv(all_shocks, an_dir / "shocks.csv")
    analysis.write_rank_csv(tables, an_dir / "rank_tables.csv")

    if args.events:
        events = analysis.load_rate_events(args.events)
        responses = analysis.classify_event_responses(
            timelines, events, cal, args.event_window_days, args.anticipation_days
        )
        analysis.write_event_csv(responses, an_dir / "event_responses.csv")
    else:
        print("no rate-event file given; event-response analysis skipped")

    analysis.write_plotdata_csv(timelines, an_dir / "plotdata.csv")
    for sector in sorted(timelines):
        r = recovery[sector]
        o = onset[sector]
        print(
            f"{sector}: recovery={r.date.isoformat() if r else '-'} "
            f"onset={o.date.isoformat() if o else '-'}"
        )


# ---------------------------------------------------------------------------
# subcommands: load their inputs once and call the stages


def cmd_segment(args: argparse.Namespace) -> None:
    sources: dict[str, Path] = {}
    for path in _existing(args.inputs):
        series = ingest.series_from_json(path) if path.suffix == ".json" else ingest.series_from_csv(path)
        _hold(sources, series.sector, path)
        _segment(args, series, path)


def cmd_cluster(args: argparse.Namespace) -> None:
    sources: dict[str, Path] = {}
    for path in _existing(args.inputs):
        sector, segments, *_ = segmenter.read_segment_table(path)
        _hold(sources, sector, path)
        try:
            _cluster(args, sector, [s.stats for s in segments])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def cmd_analyze(args: argparse.Namespace) -> None:
    cal = _read_calendar(Path(args.calendar))
    timelines: dict[str, analysis.PhaseTimeline] = {}
    boundaries: dict[str, Sequence[divergence.Boundary]] = {}
    sources: dict[str, Path] = {}
    for seg_path in sorted(Path(p) for p in args.segments):
        if not seg_path.exists():
            raise ValueError(f"segment table not found: {seg_path}")
        sector, segments, sector_boundaries, start_dates = segmenter.read_segment_table(seg_path)
        _hold(sources, sector, seg_path)
        asg_path = Path(args.assignments_dir) / f"{sector}.assignment.csv"
        if not asg_path.exists():
            raise ValueError(f"assignment not found: {asg_path}")
        assignment = cluster.read_assignment(asg_path, len(segments))
        if not all(0 <= seg.start < seg.end < len(cal) for seg in segments):
            raise ValueError(f"{seg_path}: a segment lies outside the {len(cal)}-point calendar grid")
        for row, (prev, seg) in enumerate(zip(segments, segments[1:]), start=2):
            if seg.start != prev.end:
                raise ValueError(
                    f"{seg_path}: row {row}: start {seg.start + 1} does not follow the end {prev.end} "
                    f"of row {row - 1}; rows must tile the series"
                )
        # a table dates each row by its first return: a calendar that dates
        # them otherwise is not the one the table was segmented on
        for row, (seg, date) in enumerate(zip(segments, start_dates), start=1):
            want = cal[seg.start].strftime(segmenter.START_DATE_FORMAT)
            if date != want:
                raise ValueError(
                    f"{seg_path}: row {row}: start_date {date!r} is not {want}, the date of return "
                    f"{seg.start + 1} in {args.calendar}"
                )
        # the timelines read the grid times at run edges, one at a time from the calendar
        timelines[sector] = analysis.build_timeline(segments, assignment, cal, sector)
        boundaries[sector] = sector_boundaries
    _analyze(args, cal, timelines, boundaries)


def cmd_pipeline(args: argparse.Namespace) -> None:
    # later stages take exactly the series this run ingested, never an earlier run's files
    cal, all_series = _ingest(args)
    results = {s.sector: _segment(args, s, f"sector {s.sector}") for s in all_series}
    timelines: dict[str, analysis.PhaseTimeline] = {}
    boundaries: dict[str, Sequence[divergence.Boundary]] = {}
    for sector, result in results.items():
        assignment = _cluster(args, sector, [seg.stats for seg in result.segments])
        timelines[sector] = analysis.build_timeline(result.segments, assignment, cal, sector)
        boundaries[sector] = result.boundaries
    _analyze(args, cal, timelines, boundaries)


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--seed", type=int, default=0, help="seed recorded for provenance")
    p.add_argument("--verbose", action="store_true")


def _add_ingest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start", help="calendar start date (ISO); default from data")
    p.add_argument("--end", help="calendar end date (ISO); default from data")
    p.add_argument("--holidays", help="holiday file: one ISO date per line")
    p.add_argument("--samples-per-day", type=int, default=14)
    p.add_argument("--pre-open-grace-min", type=int, default=30)


def _add_segment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cutoff", type=float, default=10.0)
    p.add_argument("--min-seg", type=int, default=14)
    p.add_argument(
        "--long-seg", type=int, default=1000,
        help="refine segments longer than this; at or above the return count, refinement is skipped",
    )
    p.add_argument("--max-opt-iters", type=int, default=100)


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=8)


def _add_analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", help="rate-event CSV (date,change,new_rate)")
    p.add_argument("--min-run-days", type=int, default=42, help="sustained-run length, trading days")
    p.add_argument("--predominance", type=float, default=0.5)
    p.add_argument("--shock-classes", default="very-high")
    p.add_argument("--match-window-days", type=int, default=20)
    p.add_argument("--event-window-days", type=int, default=2)
    p.add_argument("--anticipation-days", type=int, default=5)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="volseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    registry: dict[str, argparse.ArgumentParser] = {}

    p = registry["ingest"] = sub.add_parser("ingest", help="tick files -> half-hourly series")
    p.add_argument("inputs", nargs="+", help="tick files in raw exchange format")
    _add_common(p)
    _add_ingest_args(p)
    p.set_defaults(func=_ingest)

    p = registry["segment"] = sub.add_parser("segment", help="series -> segment tables")
    p.add_argument("inputs", nargs="+", help="series files (.csv or .json)")
    _add_common(p)
    _add_segment_args(p)
    p.set_defaults(func=cmd_segment)

    p = registry["cluster"] = sub.add_parser("cluster", help="segment tables -> volatility classes")
    p.add_argument("inputs", nargs="+", help="segment table .json files")
    _add_common(p)
    _add_cluster_args(p)
    p.set_defaults(func=cmd_cluster)

    p = registry["analyze"] = sub.add_parser("analyze", help="clustered segments -> analytics bundle")
    p.add_argument("--segments", nargs="+", required=True, help="segment table .json files")
    p.add_argument("--assignments-dir", required=True)
    p.add_argument("--calendar", required=True, help="calendar.json from ingest")
    _add_common(p)
    _add_analyze_args(p)
    p.set_defaults(func=cmd_analyze)

    p = registry["pipeline"] = sub.add_parser("pipeline", help="run ingest, segment, cluster, analyze")
    p.add_argument("inputs", nargs="+", help="tick files")
    _add_common(p)
    _add_ingest_args(p)
    _add_segment_args(p)
    _add_cluster_args(p)
    _add_analyze_args(p)
    p.set_defaults(func=cmd_pipeline)
    return parser, registry


def main(argv: Sequence[str] | None = None) -> int:
    parser, registry = build_parser()
    try:
        args = _apply_config_file(parser, registry, list(argv) if argv is not None else sys.argv[1:])
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        # set apart from basicConfig, which changes nothing where logging is already set up
        logging.getLogger().setLevel(logging.DEBUG if args.verbose else logging.WARNING)
        _check_ranges(args)
        args.func(args)
        _write_resolved_config(args, Path(args.out))  # last, so a failed run writes none
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code) if exc.code is not None else 0
    except (ValueError, OSError) as exc:
        print(f"volseg: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def console_main() -> None:
    """Run :func:`main` and end the process with its exit code, skipping
    interpreter teardown: the logs and the standard streams are flushed,
    and every artifact is closed by then.  An exception that escapes
    ``main`` takes the normal path and prints its traceback.

    The cyclic garbage collector is off for the run: its passes would
    walk the objects the imports made and free next to nothing.  The
    cycles a run leaves, the argument parser and each JSON artifact's
    encoder, hold no data and end with the process.  ``main`` called in
    process leaves the collector as the caller set it."""
    gc.disable()
    rc = main()
    logging.shutdown()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":
    console_main()
