import csv
import datetime as dt
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import weekday_calendar
from test_segmenter_oracle import ladder_corpus
from volseg import cli, cluster, ingest, segmenter
from volseg.calendar import TradingCalendar
from volseg.divergence import VARIANCE_FLOOR, PrefixSums, segment_stats
from volseg.synthetic import (
    DEMO_SECTORS,
    demo_sector_pieces,
    levels_from_returns,
    make_demo_corpus,
    regime_returns,
    write_tick_file,
)

HEADER = "#RIC,Date[G],Time[G],GMT Offset,Type,Price"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    paths = make_demo_corpus(base, sectors=("BM", "CY", "EN"), n_days=60, seed=7)
    ticks = [str(paths[s]) for s in ("BM", "CY", "EN")]
    return {"ticks": ticks, "holidays": str(paths["holidays"]), "events": str(paths["events"])}


def run(args: list[str]) -> int:
    return cli.main(args)


def table_rows(path: Path) -> list[dict[str, str]]:
    """Rows of a segment-table CSV, as written."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestIngestCommand:
    def test_worked_open_example(self, tmp_path):
        tick_file = tmp_path / "BM.csv"
        tick_file.write_text(
            HEADER
            + "\n.DJUSBM,02/14/2000,11:54:20.434,+0,Index,149.92"
            + "\n.DJUSBM,02/14/2000,14:25:50.259,+0,Index,149.92"
            + "\n.DJUSBM,02/14/2000,14:30:29.829,+0,Index,149.93"
            + "\n.DJUSBM,02/14/2000,15:12:00.100,+0,Index,150.10\n"
        )
        out = tmp_path / "out"
        assert run(["ingest", str(tick_file), "--out", str(out)]) == 0
        series = ingest.series_from_csv(out / "series" / "BM.csv")
        assert series.values[0] == 149.92
        assert series.grid[0] == dt.datetime(2000, 2, 14, 14, 30, tzinfo=dt.timezone.utc)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["BM"]["ticks"] == 4

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["ingest", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 2

    def test_empty_input_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(HEADER + "\n")
        assert run(["ingest", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_usage_error_exits_one(self, capsys):
        assert run(["ingest"]) == 1
        assert run(["frobnicate"]) == 1

    def test_duplicate_sector_is_data_error(self, corpus, tmp_path, capsys):
        copy = tmp_path / "BM-copy.csv"
        copy.write_bytes(Path(corpus["ticks"][0]).read_bytes())
        out = tmp_path / "o"
        assert run(["ingest", corpus["ticks"][0], str(copy), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert corpus["ticks"][0] in err and str(copy) in err
        assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_undecodable_byte_names_the_file_and_line(self, tmp_path, capsys, eol):
        # the byte falls in the third block that parse_ticks reads
        t0 = dt.datetime(2006, 2, 14, 15, 0)
        rows = [
            f".DJUSBM,{t:%m/%d/%Y},{t:%H:%M:%S}.000,+0,Index,100.5000".encode()
            for t in (t0 + dt.timedelta(seconds=k) for k in range(20_000))
        ]
        lines = [HEADER.encode(), *rows]
        size = len(lines[1]) + len(eol)
        lineno = 5 * ingest._BLOCK_CHARS // (2 * size)  # about two and a half blocks in
        offset = len(HEADER) + len(eol) + (lineno - 2) * size + 20
        assert 2 * ingest._BLOCK_CHARS < offset < 3 * ingest._BLOCK_CHARS
        lines[lineno - 1] = lines[lineno - 1][:20] + b"\xff" + lines[lineno - 1][20:]
        tick_file = tmp_path / "BM.csv"
        tick_file.write_bytes(eol.encode().join(lines) + eol.encode())
        assert run(["ingest", str(tick_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"volseg: {tick_file}: line {lineno}: cannot decode byte 0xff as utf")

    @pytest.mark.parametrize("flag, bound", [("--start", "2006-02-01"), ("--end", "2006-02-28")])
    def test_one_bound_given_takes_the_other_from_the_data(self, corpus, tmp_path, flag, bound):
        assert run(["ingest", corpus["ticks"][0], "--out", str(tmp_path / "all")]) == 0
        assert run(["ingest", corpus["ticks"][0], "--out", str(tmp_path / "one"), flag, bound]) == 0
        full = json.loads((tmp_path / "all" / "calendar.json").read_text())["days"]
        days = json.loads((tmp_path / "one" / "calendar.json").read_text())["days"]
        assert full[0] < bound < full[-1]
        assert [days[0], days[-1]] == ([bound, full[-1]] if flag == "--start" else [full[0], bound])

    def test_reject_log_written(self, tmp_path):
        tick_file = tmp_path / "BM.csv"
        tick_file.write_text(
            HEADER
            + "\n.DJUSBM,02/14/2000,14:25:50.259,+0,Index,149.92"
            + "\n.DJUSBM,02/14/2000,14:26:00.000,+0,Index,abc\n"
        )
        out = tmp_path / "out"
        assert run(["ingest", str(tick_file), "--out", str(out)]) == 0
        lines = (out / "series" / "BM.rejects.csv").read_text().splitlines()
        assert lines[0] == "line,reason"
        assert len(lines) == 2 and lines[1].startswith("3,")


class TestSegmentCommand:
    def make_series_file(self, tmp_path, seed=3) -> Path:
        cal = weekday_calendar(dt.date(2005, 1, 3), 72)
        x = regime_returns(
            [(500, 0.0, 1e-3), (len(cal.grid) - 1 - 500, 0.0, 4e-3)], seed
        )
        series = ingest.HalfHourSeries("ZZ", cal.grid, levels_from_returns(x))
        path = tmp_path / "ZZ.json"
        ingest.series_to_json(series, path)
        return path

    def test_two_regime_series_two_rows(self, tmp_path):
        path = self.make_series_file(tmp_path)
        out = tmp_path / "out"
        assert run(["segment", str(path), "--out", str(out)]) == 0
        rows = table_rows(out / "segments" / "ZZ.csv")
        assert len(rows) == 2
        assert abs(int(rows[1]["start"]) - 1 - 500) <= 10

    def test_huge_cutoff_one_row(self, tmp_path):
        path = self.make_series_file(tmp_path)
        out = tmp_path / "out"
        assert run(["segment", str(path), "--out", str(out), "--cutoff", "1e9"]) == 0
        rows = table_rows(out / "segments" / "ZZ.csv")
        assert len(rows) == 1
        assert rows[0]["delta"] == ""

    def test_rerun_byte_identical(self, tmp_path):
        path = self.make_series_file(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["segment", str(path), "--out", str(out1)]) == 0
        assert run(["segment", str(path), "--out", str(out2)]) == 0
        for name in ("ZZ.csv", "ZZ.json"):
            assert (out1 / "segments" / name).read_bytes() == (out2 / "segments" / name).read_bytes()

    def test_config_file_overridden_by_flag(self, tmp_path):
        path = self.make_series_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff": 1e9}))
        out1 = tmp_path / "o1"
        assert run(["segment", str(path), "--out", str(out1), "--config", str(cfg)]) == 0
        assert len(table_rows(out1 / "segments" / "ZZ.csv")) == 1
        out2 = tmp_path / "o2"
        assert (
            run(["segment", str(path), "--out", str(out2), "--config", str(cfg), "--cutoff", "10"])
            == 0
        )
        assert len(table_rows(out2 / "segments" / "ZZ.csv")) == 2
        resolved = json.loads((out2 / "resolved_config.json").read_text())
        assert resolved["cutoff"] == 10.0

    def test_unknown_config_key_rejected(self, tmp_path):
        path = self.make_series_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutofff": 5}))
        assert run(["segment", str(path), "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("max_opt_iters, converged", [("1", False), ("100", True)])
    def test_table_records_whether_optimization_converged(self, tmp_path, max_opt_iters, converged):
        # a ladder window on which one optimization sweep per round runs out
        x = ladder_corpus(39, n=1470)
        grid = weekday_calendar(dt.date(2005, 1, 3), 106).grid[: x.size + 1]
        path = tmp_path / "ZZ.json"
        ingest.series_to_json(ingest.HalfHourSeries("ZZ", grid, levels_from_returns(x)), path)
        out = tmp_path / "o"
        argv = ["segment", str(path), "--out", str(out), "--cutoff", "5", "--min-seg", "4"]
        assert run([*argv, "--max-opt-iters", max_opt_iters]) == 0
        assert json.loads((out / "segments" / "ZZ.json").read_text())["converged"] is converged

    def test_refine_floor_in_config_file_is_unknown_key(self, tmp_path, capsys):
        # refinement runs one local pass at half the cutoff; no floor is left to set
        path = self.make_series_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"refine_floor": 5}))
        assert run(["segment", str(path), "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
        assert f"volseg: {cfg}: unknown config key 'refine_floor'" in capsys.readouterr().err

    def test_config_file_not_an_object_is_data_error_naming_the_file(self, tmp_path, capsys):
        path = self.make_series_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[5]")
        assert run(["segment", str(path), "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
        assert f"volseg: {cfg}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--cutoff", "inf")])
    def test_refinement_that_cannot_end_is_data_error(self, tmp_path, flag, value):
        # a cutoff that is not finite is rejected before any scan: a child
        # with a timeout keeps a regression from hanging
        path = self.make_series_file(tmp_path)
        argv = ["segment", str(path), "--out", str(tmp_path / "o"), "--long-seg", "100", flag, value]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "volseg.cli", *argv], env=env, capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 2
        assert "must be positive" in proc.stderr

    @pytest.mark.parametrize(
        "n_points, message",
        [(14, "series of 13 points is shorter than two minimum segments"), (1, "need at least two samples")],
        ids=["shorter-than-two-segments", "one-sample"],
    )
    def test_unsegmentable_series_is_data_error_naming_the_file(self, tmp_path, capsys, n_points, message):
        ok = self.make_series_file(tmp_path)
        grid = weekday_calendar(dt.date(2005, 1, 3), 1).grid[:n_points]
        short = tmp_path / "short.json"
        ingest.series_to_json(ingest.HalfHourSeries("SH", grid, np.full(n_points, 100.0)), short)
        assert run(["segment", str(ok), str(short), "--out", str(tmp_path / "out")]) == 2
        assert f"volseg: {short}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"sector": "X", "timestamps": []}',
            '{"sector": "X", "timestamps": ["noon"], "values": ["1.0"]}',
            '{"sector": "X", "timestamps": ["2005-01-03T14:30:00+00:00"], "values": ["-1.0"]}',
            "{",
        ],
        ids=["values-missing", "bad-timestamp", "non-positive-level", "not-json"],
    )
    def test_malformed_series_is_data_error_naming_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "X.json"
        path.write_text(text)
        assert run(["segment", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"volseg: {path}: malformed series" in capsys.readouterr().err

    def test_long_seg_past_the_series_keeps_the_recursive_boundaries(self, tmp_path):
        # strong flanks around a long quiet stretch that hides a brief
        # burst, which only the lowered cutoff of refinement resolves
        cal = weekday_calendar(dt.date(2005, 1, 3), 200)
        n = len(cal.grid) - 1
        pieces = [(300, 0.0, 2e-2), (1100, 0.0, 1e-3), (24, 0.0, 3e-3), (n - 1724, 0.0, 1e-3), (300, 0.0, 2e-2)]
        series = ingest.HalfHourSeries("ZZ", cal.grid, levels_from_returns(regime_returns(pieces, 0)))
        path = tmp_path / "ZZ.json"
        ingest.series_to_json(series, path)
        refined, plain = tmp_path / "refined", tmp_path / "plain"
        assert run(["segment", str(path), "--out", str(refined)]) == 0
        # no segment is longer than the n returns, so none is refined
        assert run(["segment", str(path), "--out", str(plain), "--long-seg", str(n)]) == 0

        assert segmenter.FLAG_REFINED in [r["flag"] for r in table_rows(refined / "segments" / "ZZ.csv")]
        table = json.loads((plain / "segments" / "ZZ.json").read_text())
        assert table["config"]["long_segment_len"] == n
        rows = table["rows"]
        assert segmenter.FLAG_REFINED not in [r["flag"] for r in rows]
        returns = ingest.log_returns(ingest.series_from_json(path))
        auto = segmenter.recursive_segment(returns)
        assert [r["start"] - 1 for r in rows] == [s.start for s in auto.segments]
        assert [r["delta"] for r in rows[1:]] == [b.divergence for b in auto.boundaries]


class TestClusterCommand:
    def segment_table(self, tmp_path, seed=11) -> Path:
        # three volatility classes worth of segments
        rows_x = []
        for sigma in (1e-3, 3e-3, 9e-3):
            rows_x += [(400, 0.0, sigma)] * 3
        x = regime_returns(rows_x, seed)
        cal = weekday_calendar(dt.date(2004, 1, 5), (len(x) + 1) // 14 + 1)
        result = segmenter.recursive_segment(x)
        rows = segmenter.emit_segment_table(result, cal.grid)
        path = tmp_path / "ZZ.json"
        segmenter.write_segment_json(rows, path, "ZZ", result.config, result.converged)
        return path

    def test_three_class_segments_choose_three_clusters(self, tmp_path):
        path = self.segment_table(tmp_path)
        out = tmp_path / "out"
        assert run(["cluster", str(path), "--out", str(out), "--k-min", "3"]) == 0
        robustness = json.loads((out / "clusters" / "ZZ.robustness.json").read_text())
        assert robustness["chosen_k"] == 3
        rows = (out / "clusters" / "ZZ.assignment.csv").read_text().splitlines()
        assert rows[0] == "segment,cluster,color,phase"

    def test_six_class_table_gets_full_ladder(self, tmp_path):
        # handcrafted table rows: six well-separated volatility classes
        rows = []
        m = 1
        for vol in (0.0005, 0.0015, 0.0023, 0.0031, 0.0053, 0.0121):
            for j in range(2):
                n = 400 + 10 * j
                rows.append(
                    {
                        "m": m,
                        "start": 1,
                        "end": n,
                        "duration": n,
                        "start_date": "03/01/2005",
                        "mean": 0.0,
                        "mean_err": vol / n**0.5,
                        "stdev": vol * (1.0 + 0.01 * j),
                        "stdev_err": vol / (2 * (n - 1)) ** 0.5,
                        "delta": "",
                        "delta_err": "",
                        "flag": "",
                    }
                )
                m += 1
        path = tmp_path / "SIX.json"
        segmenter.write_segment_json(rows, path, "SIX", segmenter.SegmentationConfig(), True)
        out = tmp_path / "out"
        assert run(["cluster", str(path), "--out", str(out), "--k-min", "6", "--k-max", "6"]) == 0
        body = (out / "clusters" / "SIX.assignment.csv").read_text()
        for color in ("black", "blue", "green", "yellow", "orange", "red"):
            assert color in body
        assert json.loads((out / "clusters" / "SIX.robustness.json").read_text())["warnings"] == []

    def test_single_segment_degenerate_warning(self, tmp_path, caplog):
        cal = weekday_calendar(dt.date(2004, 1, 5), 40)
        x = regime_returns([(500, 0.0, 1e-3)], 3)
        result = segmenter.recursive_segment(x)
        rows = segmenter.emit_segment_table(result, cal.grid)
        path = tmp_path / "one.json"
        segmenter.write_segment_json(rows, path, "ONE", result.config, result.converged)
        out = tmp_path / "out"
        with caplog.at_level("WARNING"):
            assert run(["cluster", str(path), "--out", str(out)]) == 0
        payload = (out / "clusters" / "ONE.assignment.csv").read_text()
        assert "blue" in payload

    def test_one_row_table_clusters_like_a_two_row_table(self, tmp_path, caplog):
        # one segment is a tree of one leaf: the same four files, with no
        # merges and the k = 1 interval, and no log line of its own
        for sector, stdevs in (("ONE", [1e-3]), ("TWO", [1e-3, 4e-3])):
            rows = [self.table_row(m, 50, sd) for m, sd in enumerate(stdevs, start=1)]
            path = tmp_path / f"{sector}.json"
            segmenter.write_segment_json(rows, path, sector, segmenter.SegmentationConfig(), True)
        out = tmp_path / "out"
        with caplog.at_level("WARNING"):
            assert run(["cluster", str(tmp_path / "ONE.json"), str(tmp_path / "TWO.json"), "--out", str(out)]) == 0
        assert caplog.records == []
        clusters = out / "clusters"
        suffixes = ["assignment.csv", "dendrogram.json", "merges.csv", "robustness.json"]
        assert sorted(p.name for p in clusters.iterdir()) == [f"{s}.{x}" for s in ("ONE", "TWO") for x in suffixes]
        tree = json.loads((clusters / "ONE.dendrogram.json").read_text())
        assert tree == {"merges": [], "n_leaves": 1, "sector": "ONE"}
        assert (clusters / "ONE.merges.csv").read_text() == "merge,a,b,height\n"
        assert json.loads((clusters / "ONE.robustness.json").read_text()) == {
            "chosen_k": 1,
            "intervals": [{"hi": None, "k": 1, "lo": 0.0, "score": 0.0}],
            "warnings": [
                "cluster count 1 outside the usual 4..6 range", "single cluster: labeled as the growth baseline"
            ],
        }
        assert (clusters / "ONE.assignment.csv").read_text() == "segment,cluster,color,phase\n1,0,blue,growth\n"

    @staticmethod
    def table_row(m: int, n: int, stdev: float) -> dict[str, object]:
        return {
            "m": m,
            "start": 1,
            "end": n,
            "duration": n,
            "start_date": "03/01/2005",
            "mean": 0.0,
            "mean_err": stdev / n**0.5,
            "stdev": stdev,
            "stdev_err": stdev / (2 * (n - 1)) ** 0.5,
            "delta": "",
            "delta_err": "",
            "flag": "",
        }

    @pytest.mark.parametrize(
        "rows, k_flags, chosen_k, warnings",
        [
            (
                [(0.0, 1e-3)], [], 1,
                ["cluster count 1 outside the usual 4..6 range", "single cluster: labeled as the growth baseline"],
            ),
            ([(0.0, 1e-3), (0.0, 4e-3)], [], 2, ["cluster count 2 outside the usual 4..6 range"]),
            (
                [(0.0, 1e-3), (5e-3, 1e-3)], [], 2,
                ["cluster count 2 outside the usual 4..6 range", "mean-volatility tie broken by earliest segment start"],
            ),
            # two identical pairs merge at one height, so no threshold gives k = 3
            (
                [(0.0, 1e-3), (0.0, 1e-3), (0.0, 4e-3), (0.0, 4e-3)], ["--k-min", "3", "--k-max", "3"], 2,
                ["cluster count 2 outside the usual 4..6 range", "requested 3 clusters, threshold produced 2"],
            ),
        ],
        ids=["one-row", "two-classes", "volatility-tie", "k-skipped"],
    )
    def test_robustness_lists_the_clustering_warnings(self, tmp_path, rows, k_flags, chosen_k, warnings):
        table = [dict(self.table_row(m, 50, stdev), mean=mean) for m, (mean, stdev) in enumerate(rows, start=1)]
        path = tmp_path / "W.json"
        segmenter.write_segment_json(table, path, "W", segmenter.SegmentationConfig(), True)
        out = tmp_path / "out"
        assert run(["cluster", str(path), "--out", str(out), *k_flags]) == 0
        robustness = json.loads((out / "clusters" / "W.robustness.json").read_text())
        assert (robustness["chosen_k"], robustness["warnings"]) == (chosen_k, warnings)
        if k_flags:
            assert [(r["k"], r["score"], r["lo"] == r["hi"]) for r in robustness["intervals"]] == [(3, 0.0, True)]

    def test_many_leaves_with_geometric_stdevs(self, tmp_path):
        n_rows = 1500
        rows = [self.table_row(i + 1, 40 + i % 7, 1e-3 * 1.002**i) for i in range(n_rows)]
        path = tmp_path / "GEO.json"
        segmenter.write_segment_json(rows, path, "GEO", segmenter.SegmentationConfig(), True)
        out = tmp_path / "out"
        assert run(["cluster", str(path), "--out", str(out)]) == 0
        tree = json.loads((out / "clusters" / "GEO.dendrogram.json").read_text())
        assert tree["n_leaves"] == n_rows and len(tree["merges"]) == n_rows - 1
        merges = (out / "clusters" / "GEO.merges.csv").read_text().splitlines()
        assert len(merges) == n_rows

    @pytest.mark.parametrize(
        "stdevs, column, value",
        [
            ([1e-3, 2e-3, 4e-3, 3e-3], "stdev", float("nan")),
            ([1e-3, 2e-3, 4e-3, 3e-3], "stdev", 1e200),
            ([1e-3, 2e-3, 4e-3, 3e-3], "mean", 1e200),
            ([1e-3], "stdev", float("nan")),
            ([1e-3], "stdev", 1e200),
        ],
        ids=[
            "nan-stdev", "stdev-squares-past-range", "mean-squares-past-range", "one-row-nan-stdev",
            "one-row-stdev-squares-past-range",
        ],
    )
    def test_non_finite_statistics_are_data_error(self, tmp_path, capsys, stdevs, column, value):
        rows = [self.table_row(i + 1, 50, sd) for i, sd in enumerate(stdevs)]
        bad = min(3, len(rows))
        rows[bad - 1][column] = value
        path = tmp_path / "NAN.json"
        segmenter.write_segment_json(rows, path, "NAN", segmenter.SegmentationConfig(), True)
        out = tmp_path / "out"
        assert run(["cluster", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"volseg: {path}: segment {bad}: " in err and "must be finite" in err
        assert not (out / "clusters" / "NAN.assignment.csv").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"sector": "X", "rows": []},
            {"sector": "X"},
            [],
            {"sector": "X", "rows": [{"m": 1, "duration": 50}]},
            {"sector": "X", "rows": [dict(table_row(1, 50, 1e-3), duration=None)] * 2},
        ],
        ids=["no-rows", "rows-key-missing", "not-an-object", "columns-missing", "null-duration"],
    )
    def test_malformed_table_is_data_error_naming_the_file(self, tmp_path, capsys, payload):
        path = tmp_path / "X.json"
        path.write_text(json.dumps(payload))
        assert run(["cluster", str(path), "--out", str(tmp_path / "out")]) == 2
        assert str(path) in capsys.readouterr().err

    def test_stats_of_rows_in_memory_equal_those_read_back(self, tmp_path):
        # stdevs whose square lies at, just below and just above the floor
        at = math.sqrt(VARIANCE_FLOOR)
        assert at**2 == VARIANCE_FLOOR
        below, above = math.nextafter(at, 0.0), math.nextafter(at, 1.0)
        assert below**2 < VARIANCE_FLOOR < above**2
        stdevs = [at, below, above, 0.0, 1e-14, 1e-3 / 3]
        cal = weekday_calendar(dt.date(2004, 1, 5), 40)
        x = regime_returns([(200, 0.0, 1e-3), (200, 0.0, 5e-3), (len(cal.grid) - 401, 0.0, 1e-3)], 5)
        result = segmenter.recursive_segment(x)
        rows = segmenter.emit_segment_table(result, cal.grid)
        extra = [self.table_row(len(rows) + i + 1, 30, sd) for i, sd in enumerate(stdevs)]
        path = tmp_path / "FL.json"
        segmenter.write_segment_json(rows + extra, path, "FL", result.config, result.converged)

        _, segments, _ = segmenter.read_segment_table(path)
        stats = [s.stats for s in segments]
        assert stats[: len(rows)] == [s.stats for s in result.segments]
        assert [(s.n, s.mean, s.stdev, s.mean_err, s.stdev_err) for s in stats[len(rows) :]] == [
            (r["duration"], r["mean"], r["stdev"], r["mean_err"], r["stdev_err"]) for r in extra
        ]

    def test_degeneracy_follows_the_variance_floor(self, tmp_path):
        # stdev 1e-16 is positive, but its variance 1e-32 is below the
        # floor, so clustering treats such a segment as flat too
        window = segment_stats([0.0, 2e-16])
        assert window.stdev**2 <= VARIANCE_FLOOR and window.stdev > 0.0
        rows = [self.table_row(1, 2, window.stdev), self.table_row(2, 30, 1e-14), self.table_row(3, 30, 0.0)]
        path = tmp_path / "DG.json"
        segmenter.write_segment_json(rows, path, "DG", segmenter.SegmentationConfig(), True)
        _, segments, _ = segmenter.read_segment_table(path)
        normal = segment_stats([-1e-3, 1e-3] * 15)
        distances = [cluster.segment_distance(s.stats, normal) for s in segments]
        assert distances[0] == math.inf and math.isfinite(distances[1]) and distances[2] == math.inf


class TestAnalyzeCommand:
    ONE_ROW_ASSIGNMENT = "segment,cluster,color,phase\n1,0,blue,growth\n"

    def analyze(
        self, tmp_path, table: object, calendar: object, assignment: str = ONE_ROW_ASSIGNMENT, extra: tuple = ()
    ) -> int:
        (tmp_path / "ZZ.json").write_text(json.dumps(table))
        (tmp_path / "calendar.json").write_text(json.dumps(calendar))
        (tmp_path / "ZZ.assignment.csv").write_text(assignment)
        return run(
            [
                "analyze",
                "--segments", str(tmp_path / "ZZ.json"),
                "--assignments-dir", str(tmp_path),
                "--calendar", str(tmp_path / "calendar.json"),
                "--out", str(tmp_path / "out"),
                *extra,
            ]
        )

    def valid_inputs(self, tmp_path) -> tuple[dict, dict]:
        cal = weekday_calendar(dt.date(2005, 1, 3), 10)
        cli._write_calendar(cal, tmp_path / "calendar.json")
        calendar = json.loads((tmp_path / "calendar.json").read_text())
        row = TestClusterCommand.table_row(1, len(cal.grid) - 1, 1e-3)
        return {"sector": "ZZ", "rows": [row]}, calendar

    def test_valid_inputs_pass(self, tmp_path):
        table, calendar = self.valid_inputs(tmp_path)
        assert self.analyze(tmp_path, table, calendar) == 0

    @pytest.mark.parametrize("key", ["rows", "columns", "empty"])
    def test_malformed_table_is_data_error_naming_the_file(self, tmp_path, capsys, key):
        table, calendar = self.valid_inputs(tmp_path)
        if key == "rows":
            del table["rows"]
        elif key == "columns":
            del table["rows"][0]["delta"]
        else:
            table["rows"] = []
        assert self.analyze(tmp_path, table, calendar) == 2
        assert str(tmp_path / "ZZ.json") in capsys.readouterr().err

    TWO_ROW_ASSIGNMENT = "segment,cluster,color,phase\n1,0,blue,growth\n2,1,red,crash\n"

    def two_row_inputs(self, tmp_path) -> tuple[dict, dict]:
        """A table of two segments split mid-grid, with the boundary's
        divergence on the second row; checked to pass before it is returned."""
        table, calendar = self.valid_inputs(tmp_path)
        (row,) = table["rows"]
        half = row["end"] // 2
        second = dict(row, m=2, start=half + 1, duration=row["end"] - half, delta=3.5, delta_err=0.4)
        table["rows"] = [dict(row, end=half, duration=half), second]
        assert self.analyze(tmp_path, table, calendar, self.TWO_ROW_ASSIGNMENT) == 0
        return table, calendar

    @pytest.mark.parametrize(
        "first_end, assignment, censored",
        [
            (70, TWO_ROW_ASSIGNMENT, "true"),
            (5, "segment,cluster,color,phase\n1,0,red,crash\n2,1,blue,growth\n", "false"),
        ],
        ids=["opens-in-growth", "growth-from-the-first-day"],
    )
    def test_recovery_in_the_first_run_is_censored(self, tmp_path, first_end, assignment, censored):
        table, calendar = self.valid_inputs(tmp_path)
        (row,) = table["rows"]
        second = dict(row, m=2, start=first_end + 1, duration=row["end"] - first_end, delta=3.5, delta_err=0.4)
        table["rows"] = [dict(row, end=first_end, duration=first_end), second]
        assert self.analyze(tmp_path, table, calendar, assignment, ("--min-run-days", "1")) == 0
        rows = (tmp_path / "out" / "analysis" / "recovery.csv").read_text().splitlines()
        assert rows == ["sector,date,censored", f"ZZ,2005-01-03,{censored}"]

    @pytest.mark.parametrize(
        "row, key, value",
        [
            (0, "start", None),
            (1, "start", None),
            (1, "end", None),
            (1, "start", "2"),
            (1, "end", 10.0),
            (1, "start", True),
            (1, "delta", None),
            (1, "delta_err", ""),
            (1, "delta", "3.5"),
            (0, "delta", 1.0),
            (1, "delta", [3.5]),
            (0, "start", 0),
            (1, "start", 10**6),
            (1, "end", 10**6),
        ],
    )
    def test_malformed_boundary_cell_is_data_error_naming_the_file(self, tmp_path, capsys, row, key, value):
        table, calendar = self.two_row_inputs(tmp_path)
        table["rows"][row][key] = value
        assert self.analyze(tmp_path, table, calendar, self.TWO_ROW_ASSIGNMENT) == 2
        assert str(tmp_path / "ZZ.json") in capsys.readouterr().err

    @pytest.mark.parametrize("shift", [-10, 10], ids=["overlap", "gap"])
    @pytest.mark.parametrize(
        "assignment",
        [TWO_ROW_ASSIGNMENT, "segment,cluster,color,phase\n1,0,blue,growth\n2,0,blue,growth\n"],
        ids=["two-colors", "one-color"],
    )
    def test_rows_that_do_not_tile_are_data_error_naming_the_row(self, tmp_path, capsys, shift, assignment):
        table, calendar = self.two_row_inputs(tmp_path)
        shutil.rmtree(tmp_path / "out")
        second = table["rows"][1]
        second["start"] += shift
        second["duration"] -= shift
        assert self.analyze(tmp_path, table, calendar, assignment) == 2
        assert f"volseg: {tmp_path / 'ZZ.json'}: row 2: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "assignment",
        [
            "segment,color,phase\n1,blue,growth\n2,red,crash\n",
            "segment,cluster,color,phase\n1,0,blue,growth\n2,-1,red,crash\n",
            "segment,cluster,color,phase\n1,0,blue,growth\n2,1.0,red,crash\n",
            "segment,cluster,color,phase\n1,0,blue,growth\n2,one,red,crash\n",
            "segment,cluster,color,phase\n1,0,blue,growth\n2,,red,crash\n",
            "segment,cluster,color,phase\n1,0,blue,growth\n2\n",
            "segment,cluster,color,phase\n1,0,blue,growth\n2,1,purple,crash\n",
            "segment,cluster,color,phase\n1,0,blue,growth\n2,2,red,crash\n",
            "segment,cluster,color,phase\n1,0,blue,growth\n2,1,red,crash\n3,1,red,crash\n",
            "segment,cluster,color,phase\n1,0,blue,growth\n",
        ],
        ids=[
            "cluster-column-missing",
            "negative-id",
            "float-id",
            "word-id",
            "empty-id",
            "short-row",
            "unknown-color",
            "id-beyond-segments",
            "too-many-rows",
            "too-few-rows",
        ],
    )
    def test_malformed_assignment_is_data_error_naming_the_file(self, tmp_path, capsys, assignment):
        table, calendar = self.two_row_inputs(tmp_path)
        assert self.analyze(tmp_path, table, calendar, assignment) == 2
        assert str(tmp_path / "ZZ.assignment.csv") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("days", None), ("samples_per_day", None), ("open_local", None), ("tz", None), ("tz", "Nowhere/Such")],
    )
    def test_malformed_calendar_is_data_error_naming_the_file(self, tmp_path, capsys, key, value):
        table, calendar = self.valid_inputs(tmp_path)
        if value is None:
            del calendar[key]
        else:
            calendar[key] = value
        assert self.analyze(tmp_path, table, calendar) == 2
        assert str(tmp_path / "calendar.json") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("date,new_rate\n2005-01-05,4.5\n", "rate events lack columns ['change']"),
            ("date,change,new_rate\n2005-01-05,-0.5,4.5\n2005-01-07,,4.0\n", "line 3: could not convert"),
            ("date,change,new_rate\n2005-01-05,-0.5\n", "line 2: "),
        ],
        ids=["missing-column", "blank-cell", "short-row"],
    )
    def test_malformed_rate_events_are_data_error_naming_the_file(self, tmp_path, capsys, text, message):
        table, calendar = self.valid_inputs(tmp_path)
        events = tmp_path / "events.csv"
        events.write_text(text)
        assert self.analyze(tmp_path, table, calendar, extra=("--events", str(events))) == 2
        assert f"volseg: {events}: {message}" in capsys.readouterr().err

    def test_skips_rate_analysis_without_events(self, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["pipeline", *corpus["ticks"], "--out", str(out), "--holidays", corpus["holidays"]]) == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.out
        assert not (out / "analysis" / "event_responses.csv").exists()

    def test_full_bundle_with_events(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert (
            run(
                [
                    "pipeline",
                    *corpus["ticks"],
                    "--out",
                    str(out),
                    "--holidays",
                    corpus["holidays"],
                    "--events",
                    corpus["events"],
                ]
            )
            == 0
        )
        analysis_dir = out / "analysis"
        for name in (
            "recovery.csv",
            "onset.csv",
            "shocks.csv",
            "rank_tables.csv",
            "plotdata.csv",
            "event_responses.csv",
        ):
            assert (analysis_dir / name).exists(), name
        shocks = (analysis_dir / "shocks.csv").read_text().splitlines()
        assert len(shocks) > 1  # every demo sector carries at least one shock


class TestPhaseLabelsOnDemoCorpus:
    def test_calm_stretches_and_shock_windows_keep_their_meaning(self, tmp_path):
        # the unmodified demo corpus: calm stretches with two volatility
        # shocks per sector, checked against the planted layout
        paths = make_demo_corpus(tmp_path / "corpus")
        out = tmp_path / "run"
        argv = ["pipeline", *(str(paths[s]) for s in DEMO_SECTORS), "--out", str(out)]
        assert run([*argv, "--holidays", str(paths["holidays"]), "--events", str(paths["events"])]) == 0
        margin = 14  # one trading day either side of a planted edge
        for i, sector in enumerate(DEMO_SECTORS):
            rows = json.loads((out / "segments" / f"{sector}.json").read_text())["rows"]
            assignment = (out / "clusters" / f"{sector}.assignment.csv").read_text().splitlines()
            phases = [r["phase"] for r in csv.DictReader(assignment)]
            phase_at = np.empty(rows[-1]["end"], dtype=object)
            for row, phase in zip(rows, phases):
                phase_at[row["start"] - 1 : row["end"]] = phase
            start = 0
            for k, (length, _, _) in enumerate(demo_sector_pieces(i, 120)):
                inside = set(phase_at[start + margin : start + length - margin])
                start += length
                if k % 2:  # a shock window
                    assert "growth" not in inside, (sector, k, inside)
                else:  # a calm stretch
                    assert not inside & {"crisis", "crash"}, (sector, k, inside)


class TestAnalyzeGrid:
    @pytest.mark.parametrize(
        "cal",
        [
            # spans both daylight-saving switches of 2005
            weekday_calendar(dt.date(2005, 3, 1), 200, samples_per_day=3),
            # 08:00 in Tokyo is 23:00 UTC of the day before
            TradingCalendar.from_range(
                dt.date(2007, 12, 17), dt.date(2008, 1, 18), open_local=dt.time(8, 0), tz="Asia/Tokyo"
            ),
            TradingCalendar.from_range(
                dt.date(2005, 3, 1), dt.date(2005, 3, 31), samples_per_day=48, open_local=dt.time(0, 0), tz="UTC"
            ),
            weekday_calendar(dt.date(2005, 3, 1), 1),
        ],
        ids=["new-york-dst", "tokyo", "48-a-day", "one-day"],
    )
    def test_grid_times_equal_the_calendar_grid(self, cal):
        assert [cal[i] for i in range(len(cal))] == list(cal.grid)
        for bad in (-1, len(cal)):
            with pytest.raises(IndexError):
                cal[bad]

    def test_standalone_analyze_builds_no_grid(self, corpus, tmp_path, monkeypatch):
        out = tmp_path / "run"
        argv = ["pipeline", *corpus["ticks"], "--out", str(out), "--holidays", corpus["holidays"]]
        assert run([*argv, "--events", corpus["events"]]) == 0
        expected = artifact_tree(out / "analysis")

        def no_grid(self):
            raise AssertionError("analyze built the whole calendar grid")

        monkeypatch.setattr(TradingCalendar, "grid", property(no_grid))
        tables = sorted(map(str, (out / "segments").glob("*.json")))
        again = tmp_path / "again"
        assert (
            run(
                [
                    "analyze", "--segments", *tables,
                    "--assignments-dir", str(out / "clusters"),
                    "--calendar", str(out / "calendar.json"),
                    "--events", corpus["events"],
                    "--out", str(again),
                ]
            )
            == 0
        )
        assert artifact_tree(again / "analysis") == expected


    def test_standalone_analyze_reads_the_grid_only_at_run_edges(self, tmp_path, monkeypatch):
        # four segments in two runs of two: the grid is read at 0, 60 and the end
        analyze = TestAnalyzeCommand()
        table, calendar = analyze.valid_inputs(tmp_path)
        (row,) = table["rows"]
        cuts = [0, 30, 60, 90, row["end"]]
        table["rows"] = [dict(row, m=1, end=30, duration=30)] + [
            dict(row, m=k + 1, start=a + 1, end=b, duration=b - a, delta=3.5, delta_err=0.4)
            for k, (a, b) in enumerate(zip(cuts[1:], cuts[2:]), start=1)
        ]
        assignment = "segment,cluster,color,phase\n1,0,blue,growth\n2,0,blue,growth\n3,1,red,crash\n4,1,red,crash\n"
        read = []
        getitem = TradingCalendar.__getitem__

        def recording_getitem(self, i):
            read.append(i)
            return getitem(self, i)

        monkeypatch.setattr(TradingCalendar, "__getitem__", recording_getitem)
        assert analyze.analyze(tmp_path, table, calendar, assignment) == 0
        assert sorted(read) == [0, 60, 60, row["end"]]

def artifact_tree(root: Path) -> dict[Path, bytes]:
    """Every file under ``root`` but the invocation echo, by relative path."""
    return {
        p.relative_to(root): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file() and p.name != "resolved_config.json"
    }


class TestPipelineComposition:
    def test_pipeline_equals_stepwise_runs(self, corpus, tmp_path, capsys):
        full = tmp_path / "full"
        assert (
            run(
                [
                    "pipeline",
                    *corpus["ticks"],
                    "--out",
                    str(full),
                    "--holidays",
                    corpus["holidays"],
                    "--events",
                    corpus["events"],
                ]
            )
            == 0
        )
        full_stdout = capsys.readouterr().out
        step = tmp_path / "step"
        assert (
            run(["ingest", *corpus["ticks"], "--out", str(step), "--holidays", corpus["holidays"]])
            == 0
        )
        series = sorted((step / "series").glob("*.json"))
        assert run(["segment", *map(str, series), "--out", str(step)]) == 0
        tables = sorted((step / "segments").glob("*.json"))
        assert run(["cluster", *map(str, tables), "--out", str(step)]) == 0
        assert (
            run(
                [
                    "analyze",
                    "--segments",
                    *map(str, tables),
                    "--assignments-dir",
                    str(step / "clusters"),
                    "--calendar",
                    str(step / "calendar.json"),
                    "--events",
                    corpus["events"],
                    "--out",
                    str(step),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == full_stdout
        full_tree, step_tree = artifact_tree(full), artifact_tree(step)
        assert sorted(full_tree) == sorted(step_tree)
        assert Path("analysis/event_responses.csv") in full_tree
        for rel, data in full_tree.items():
            assert data == step_tree[rel], rel

    def test_pipeline_reads_back_none_of_its_files(self, corpus, tmp_path, monkeypatch):
        def read_back(*args, **kwargs):
            raise AssertionError("pipeline read back a file it wrote")

        monkeypatch.setattr(ingest, "series_from_json", read_back)
        monkeypatch.setattr(cli, "_read_segment_table", read_back)
        monkeypatch.setattr(cluster, "read_assignment", read_back)
        monkeypatch.setattr(cli, "_read_calendar", read_back)
        argv = ["pipeline", *corpus["ticks"], "--out", str(tmp_path / "run"), "--holidays", corpus["holidays"]]
        assert run([*argv, "--events", corpus["events"]]) == 0

    def test_unsegmentable_series_is_data_error_naming_the_sector(self, tmp_path, capsys):
        cal = weekday_calendar(dt.date(2005, 1, 3), 1)
        ticks = tmp_path / "SH.csv"
        write_tick_file(ticks, "SH", cal, np.full(len(cal.grid), 100.0), seed=1)
        assert run(["pipeline", str(ticks), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "volseg: sector SH: series of 13 points is shorter than two minimum segments" in err

    def test_pipeline_rerun_byte_identical(self, corpus, tmp_path):
        # identical invocation twice (same --out): every artifact byte-equal
        import shutil

        out = tmp_path / "run"
        argv = [
            "pipeline",
            *corpus["ticks"],
            "--out",
            str(out),
            "--holidays",
            corpus["holidays"],
            "--events",
            corpus["events"],
            "--seed",
            "42",
        ]
        assert run(argv) == 0
        snapshot = {
            p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()
        }
        shutil.rmtree(out)
        assert run(argv) == 0
        again = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert snapshot == again

    def test_rerun_with_fewer_sectors_reports_only_those(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert run(["pipeline", *corpus["ticks"], "--out", str(out), "--holidays", corpus["holidays"]]) == 0
        assert run(["pipeline", corpus["ticks"][0], "--out", str(out), "--holidays", corpus["holidays"]]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        plotted = {
            line.split(",")[0]
            for line in (out / "analysis" / "plotdata.csv").read_text().splitlines()[1:]
        }
        assert plotted == set(manifest) == {"BM"}


    def test_verbose_logs_refinement_work_per_sector_and_writes_the_same_files(self, corpus, tmp_path, monkeypatch):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["pipeline", *corpus["ticks"], "--holidays", corpus["holidays"], "--long-seg", "100"]
        stderr, recursion = {}, {}
        for name, extra in (("quiet", []), ("verbose", ["--verbose"])):
            proc = subprocess.run(
                [sys.executable, "-m", "volseg.cli", *argv, "--out", str(tmp_path / name), *extra],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert ": refinement: " not in proc.stdout and ": recursion: " not in proc.stdout
            stderr[name] = [line for line in proc.stderr.splitlines() if ": refinement: " in line]
            recursion[name] = [line for line in proc.stderr.splitlines() if ": recursion: " in line]
        assert stderr["quiet"] == [] and recursion["quiet"] == []
        pattern = r"DEBUG \S+: (\w+): refinement: (\d+) long window\(s\), (\d+) scan\(s\), \d+\.\d{4} s"
        found = [re.fullmatch(pattern, line) for line in stderr["verbose"]]
        assert all(found), stderr["verbose"]
        assert [m[1] for m in found] == ["BM", "CY", "EN"]
        assert all(int(m[2]) >= 1 and int(m[3]) >= int(m[2]) for m in found)
        # the recursion's work, against the scans a run in this process asks for
        pattern = r"DEBUG \S+: (\w+): recursion: (\d+) scan\(s\), (\d+) point\(s\) scanned, (\d+) side term\(s\) computed"
        found = [re.fullmatch(pattern, line) for line in recursion["verbose"]]
        assert all(found), recursion["verbose"]
        assert [m[1] for m in found] == ["BM", "CY", "EN"]
        for m in found:
            series = ingest.series_from_json(tmp_path / "quiet" / "series" / f"{m[1]}.json")
            windows = []
            scan = PrefixSums.scan

            def record(self, a, b, margin=2):
                windows.append((a, b, margin))
                return scan(self, a, b, margin)

            with monkeypatch.context() as patch:
                patch.setattr(PrefixSums, "scan", record)
                segmenter.recursive_segment(ingest.log_returns(series))
            assert (int(m[2]), int(m[3])) == (len(windows), sum(b - a for a, b, _ in windows))
            # fewer side terms than recomputing both sides of every scan
            both_sides = sum(2 * (b - a - 2 * margin + 1) for a, b, margin in windows if b - a >= 2 * margin)
            assert windows[0][1] <= int(m[4]) < both_sides
        # the timings stay out of the output directory
        assert artifact_tree(tmp_path / "verbose") == artifact_tree(tmp_path / "quiet")


class TestOutsideFileValues:
    """Bad values in holiday, config and rate-event files exit 2 and name the file."""

    def test_bad_holiday_line_names_the_file_and_line(self, corpus, tmp_path, capsys):
        holidays = tmp_path / "holidays.txt"
        holidays.write_text("# exchange holidays\n2006-01-16\nnot-a-date\n")
        argv = ["ingest", *corpus["ticks"], "--out", str(tmp_path / "o"), "--holidays", str(holidays)]
        assert run(argv) == 2
        assert f"volseg: {holidays}: line 3: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("cutoff", [1]),
            ("cutoff", "10"),
            ("min-seg", 14.5),
            ("min_seg", True),
            ("verbose", "false"),
            ("verbose", 1),
            ("inputs", "ZZ.csv"),
        ],
    )
    def test_config_value_of_the_wrong_type_names_the_file_and_key(self, tmp_path, capsys, key, value):
        path = TestSegmentCommand().make_series_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["segment", str(path), "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
        assert f"volseg: {cfg}: config key {key!r}: " in capsys.readouterr().err

    def test_config_values_of_the_right_types_pass(self, tmp_path):
        path = TestSegmentCommand().make_series_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff": 10, "min-seg": 14, "verbose": False, "config": None}))
        assert run(["segment", str(path), "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 0
        resolved = json.loads((tmp_path / "o" / "resolved_config.json").read_text())
        assert (resolved["cutoff"], resolved["min_seg"], resolved["verbose"]) == (10, 14, False)

    @pytest.mark.parametrize("column", ["change", "new_rate"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_rate_names_the_file_and_line(self, tmp_path, capsys, column, cell):
        analyze = TestAnalyzeCommand()
        table, calendar = analyze.valid_inputs(tmp_path)
        row = {"date": "2005-01-07", "change": "-0.5", "new_rate": "4.0", column: cell}
        events = tmp_path / "events.csv"
        events.write_text("date,change,new_rate\n2005-01-05,-0.5,4.5\n" + ",".join(row.values()) + "\n")
        assert analyze.analyze(tmp_path, table, calendar, extra=("--events", str(events))) == 2
        assert f"volseg: {events}: line 3: non-finite rate" in capsys.readouterr().err


class TestRemovedOptions:
    """The dendrogram has one cut rule, a shock one class and refinement
    one switch (``--long-seg``), so the options that chose another are
    gone: as flags and as config keys."""

    COMMANDS = {
        "segment": ["segment", "T.json"],
        "cluster": ["cluster", "T.json"],
        "analyze": ["analyze", "--segments", "T.json", "--assignments-dir", "a", "--calendar", "c.json"],
        "pipeline": ["pipeline", "T.csv"],
    }
    REMOVED = [("cluster", "--policy", "per-branch"), ("pipeline", "--policy", "per-branch"),
               ("analyze", "--include-higher", None), ("pipeline", "--include-higher", None),
               ("segment", "--no-refine", None), ("pipeline", "--no-refine", None)]

    @pytest.mark.parametrize("command, flag, value", REMOVED)
    def test_flag_is_unrecognized(self, tmp_path, capsys, command, flag, value):
        argv = [*self.COMMANDS[command], "--out", str(tmp_path / "o"), flag, *([value] if value else [])]
        assert run(argv) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", REMOVED)
    def test_config_key_is_unknown(self, tmp_path, capsys, command, flag, value):
        key = flag.removeprefix("--")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value or True}))
        assert run([*self.COMMANDS[command], "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
        assert f"volseg: {cfg}: unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def one_sector(tmp_path_factory):
    # 40 days: one sample a day still gives the segmenter two minimum segments
    paths = make_demo_corpus(tmp_path_factory.mktemp("one"), sectors=("BM",), n_days=40, seed=7)
    return [str(paths["BM"]), "--holidays", str(paths["holidays"])]


class TestIngestOptionRanges:
    """Ingest options out of range exit 2 naming the option, the value and the limit."""

    @pytest.mark.parametrize(
        "flag, good, bad, message",
        [
            (
                "--samples-per-day", 48, 49,
                "--samples-per-day 49 is out of range: the session of 2006-01-02 would reach the open "
                "of 2006-01-03; at most 48 samples per day fit this calendar",
            ),
            ("--samples-per-day", 1, 0, "--samples-per-day 0 is out of range: it must be at least 1"),
            ("--pre-open-grace-min", 0, -1, "--pre-open-grace-min -1 is out of range: it must be at least 0"),
            (
                "--pre-open-grace-min", 1050, 1051,
                "--pre-open-grace-min 1051 is out of range: the open of 2006-01-03 would reach back past the "
                "close of 2006-01-02; at most 1050 minutes fit this calendar",
            ),
        ],
        ids=["samples-above-max", "samples-zero", "grace-negative", "grace-above-max"],
    )
    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_limit_passes_and_one_beyond_exits_2(
        self, one_sector, tmp_path, capsys, command, via_config, flag, good, bad, message
    ):
        def argv(value: int, out: str) -> list[str]:
            if not via_config:
                return [command, *one_sector, "--out", str(tmp_path / out), flag, str(value)]
            cfg = tmp_path / f"{out}.json"
            cfg.write_text(json.dumps({flag[2:]: value}))
            return [command, *one_sector, "--out", str(tmp_path / out), "--config", str(cfg)]

        assert run(argv(good, "good")) == 0
        capsys.readouterr()
        assert run(argv(bad, "bad")) == 2
        assert capsys.readouterr().err == f"volseg: {message}\n"


@pytest.fixture(scope="module")
def one_sector_run(one_sector, tmp_path_factory):
    """A pipeline run of ``one_sector``: the inputs of each later step."""
    out = tmp_path_factory.mktemp("one_run")
    assert run(["pipeline", *one_sector, "--out", str(out)]) == 0
    return out


def stage_inputs(command: str, one_sector: list[str], out: Path) -> list[str]:
    tables = [str(out / "segments" / "BM.json")]
    return {
        "segment": [str(out / "series" / "BM.json")],
        "cluster": tables,
        "analyze": [
            "--segments", *tables, "--assignments-dir", str(out / "clusters"),
            "--calendar", str(out / "calendar.json"),
        ],
        "pipeline": one_sector,
    }[command]


class TestStageOptionRanges:
    """Segment, cluster and analyze options out of range exit 2 naming the
    option, the value and the limit, before any output is written."""

    @pytest.mark.parametrize(
        "command, good, bad, message",
        [
            ("segment", {"max-opt-iters": 0}, {"max-opt-iters": -1},
             "--max-opt-iters -1 is out of range: it must be at least 0"),
            ("cluster", {"k-min": 1}, {"k-min": 0}, "--k-min 0 is out of range: it must be at least 1"),
            ("cluster", {"k-min": 3, "k-max": 3}, {"k-min": 4, "k-max": 3},
             "--k-max 3 is out of range: it must be at least --k-min (4)"),
            ("analyze", {"predominance": 1.0}, {"predominance": 1.0000000000000002},
             "--predominance 1.0000000000000002 is out of range: it must be greater than 0 and at most 1"),
            ("analyze", {"predominance": 5e-324}, {"predominance": 0.0},
             "--predominance 0.0 is out of range: it must be greater than 0 and at most 1"),
            ("analyze", {"min-run-days": 1}, {"min-run-days": 0},
             "--min-run-days 0 is out of range: it must be at least 1"),
            ("analyze", {"match-window-days": 0}, {"match-window-days": -1},
             "--match-window-days -1 is out of range: it must be at least 0"),
            ("analyze", {"event-window-days": 0}, {"event-window-days": -1},
             "--event-window-days -1 is out of range: it must be at least 0"),
            ("analyze", {"anticipation-days": 0}, {"anticipation-days": -1},
             "--anticipation-days -1 is out of range: it must be at least 0"),
        ],
        ids=[
            "max-opt-iters", "k-min", "k-max-below-k-min", "predominance-above-one", "predominance-zero",
            "min-run-days", "match-window-days", "event-window-days", "anticipation-days",
        ],
    )
    @pytest.mark.parametrize("in_pipeline", [False, True], ids=["step", "pipeline"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_limit_passes_and_one_beyond_exits_2(
        self, one_sector, one_sector_run, tmp_path, capsys, in_pipeline, via_config, command, good, bad, message
    ):
        command = "pipeline" if in_pipeline else command

        def argv(values: dict[str, object], out: str) -> list[str]:
            head = [command, *stage_inputs(command, one_sector, one_sector_run), "--out", str(tmp_path / out)]
            if not via_config:
                return head + [item for key, value in values.items() for item in (f"--{key}", repr(value))]
            cfg = tmp_path / f"{out}.json"
            cfg.write_text(json.dumps(values))
            return [*head, "--config", str(cfg)]

        assert run(argv(good, "good")) == 0
        capsys.readouterr()
        assert run(argv(bad, "bad")) == 2
        assert capsys.readouterr().err == f"volseg: {message}\n"
        assert not (tmp_path / "bad").exists()



class TestOptionLimitsBeforeAnyWork:
    """--min-seg, --long-seg, --cutoff, --shock-classes, --start and --end
    outside their limits exit 2 naming the option, from a flag or from
    --config, before anything is written under --out."""

    @pytest.mark.parametrize(
        "commands, good, bad, message",
        [
            (("segment", "pipeline"), {"min-seg": 4}, {"min-seg": 3},
             "--min-seg 3 is out of range: it must be at least 4"),
            (("segment", "pipeline"), {"long-seg": 14}, {"long-seg": 13},
             "--long-seg 13 is out of range: it must be at least --min-seg (14)"),
            (("segment", "pipeline"), {"min-seg": 20, "long-seg": 20}, {"min-seg": 20, "long-seg": 0},
             "--long-seg 0 is out of range: it must be at least --min-seg (20)"),
            (("segment", "pipeline"), {"cutoff": 5e-324}, {"cutoff": 0.0},
             "--cutoff 0.0 is out of range: it must be positive and finite"),
            (("segment", "pipeline"), {"cutoff": 1.7976931348623157e308}, {"cutoff": math.inf},
             "--cutoff inf is out of range: it must be positive and finite"),
            (("analyze", "pipeline"), {"shock-classes": "high,very-high,extremely-high"},
             {"shock-classes": "very-high,bogus"},
             "--shock-classes very-high,bogus: class 'bogus' is not one of high, very-high, extremely-high"),
            (("analyze", "pipeline"), {"shock-classes": "very-high, high"}, {"shock-classes": "very-high,high,very-high"},
             "--shock-classes very-high,high,very-high: class 'very-high' is given twice"),
            (("ingest", "pipeline"), {"start": "2006-01-02"}, {"start": "2006-13-01"},
             "--start 2006-13-01 is not an ISO date (month must be in 1..12)"),
            (("ingest", "pipeline"), {"end": "2006-02-28"}, {"end": "2006-02-29"},
             "--end 2006-02-29 is not an ISO date (day is out of range for month)"),
            (("ingest",), {"start": "2006-01-04", "end": "2006-01-04"}, {"start": "2006-01-05", "end": "2006-01-04"},
             "--end 2006-01-04 is out of range: it must be on or after --start (2006-01-05)"),
        ],
        ids=[
            "min-seg", "long-seg", "long-seg-below-min-seg", "cutoff-zero", "cutoff-infinite", "unknown-shock-class",
            "shock-class-twice", "start-not-a-date", "end-not-a-date", "end-before-start",
        ],
    )
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_limit_passes_and_one_beyond_exits_2(
        self, one_sector, one_sector_run, tmp_path, capsys, via_config, commands, good, bad, message
    ):
        for command in commands:
            inputs = one_sector if command == "ingest" else stage_inputs(command, one_sector, one_sector_run)

            def argv(values: dict[str, object], out: str) -> list[str]:
                head = [command, *inputs, "--out", str(tmp_path / out)]
                if not via_config:
                    return head + [item for key, value in values.items() for item in (f"--{key}", str(value))]
                cfg = tmp_path / f"{out}.json"
                cfg.write_text(json.dumps(values))
                return [*head, "--config", str(cfg)]

            assert run(argv(good, f"{command}-good")) == 0, command
            capsys.readouterr()
            assert run(argv(bad, f"{command}-bad")) == 2, command
            assert capsys.readouterr().err == f"volseg: {message}\n"
            assert not (tmp_path / f"{command}-bad").exists()


@pytest.mark.parametrize("command", ["cluster", "analyze"])
def test_duration_other_than_end_minus_start_plus_one_exits_2_naming_the_row(
    one_sector_run, tmp_path, capsys, command
):
    payload = json.loads((one_sector_run / "segments" / "BM.json").read_text())
    row = payload["rows"][1]
    row["duration"] *= 5
    table = tmp_path / "BM.json"
    table.write_text(json.dumps(payload))
    argv = {
        "cluster": ["cluster", str(table)],
        "analyze": [
            "analyze", "--segments", str(table), "--assignments-dir", str(one_sector_run / "clusters"),
            "--calendar", str(one_sector_run / "calendar.json"),
        ],
    }[command]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 2
    length = row["end"] - row["start"] + 1
    assert capsys.readouterr().err == (
        f"volseg: {table}: malformed segment table (ValueError: row 2: duration {5 * length} "
        f"is not end - start + 1 ({length}))\n"
    )
    assert not (tmp_path / "out").exists()


class TestSectorNames:
    """A sector names its output files: a sector that cannot, or one that two
    input files hold, exits 2 naming the file or files and the sector."""

    @staticmethod
    def with_sector(path: Path, sector: str) -> Path:
        payload = json.loads(path.read_text())
        payload["sector"] = sector
        path.write_text(json.dumps(payload))
        return path

    @staticmethod
    def input_file(tmp_path, command: str) -> Path:
        """A valid input of ``command`` holding sector ZZ; for ``analyze`` a
        one-row segment table, with its calendar and assignment beside it."""
        if command == "segment":
            return TestSegmentCommand().make_series_file(tmp_path)
        if command == "cluster":
            return TestClusterCommand().segment_table(tmp_path)
        table, _ = TestAnalyzeCommand().valid_inputs(tmp_path)
        (tmp_path / "ZZ.assignment.csv").write_text(TestAnalyzeCommand.ONE_ROW_ASSIGNMENT)
        path = tmp_path / "ZZ.json"
        path.write_text(json.dumps(table))
        return path

    @staticmethod
    def analyze(tmp_path, tables: list[Path], assignments_dir: Path) -> int:
        return run(
            [
                "analyze", "--segments", *map(str, tables),
                "--assignments-dir", str(assignments_dir),
                "--calendar", str(tmp_path / "calendar.json"),
                "--out", str(tmp_path / "out"),
            ]
        )

    @pytest.mark.parametrize(
        "ric, sector",
        [(".DJUS../../x", "../../x"), (".", ""), (".DJUS.", "."), (".DJUS..", ".."), (".DJUSa\\b", "a\\b")],
    )
    def test_ingest_rejects_a_sector_that_cannot_name_a_file(self, tmp_path, capsys, ric, sector):
        tick_file = tmp_path / "ticks.csv"
        tick_file.write_text(f"{HEADER}\n{ric},02/14/2000,14:30:29.829,+0,Index,149.93\n")
        assert run(["ingest", str(tick_file), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"volseg: {tick_file}: sector {sector!r} cannot name an output file\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["ticks.csv"]

    @pytest.mark.parametrize("command", ["segment", "cluster"])
    def test_sector_read_back_that_escapes_the_output_directory_exits_2(self, tmp_path, capsys, command):
        path = self.with_sector(self.input_file(tmp_path, command), "../../x")  # out/<stage>/../../x is tmp_path/x
        assert run([command, str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"volseg: {path}: sector '../../x' cannot name an output file\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["ZZ.json"]

    def test_analyze_rejects_a_sector_that_would_look_up_another_directory(self, tmp_path, capsys):
        # assignments/../ZZ.assignment.csv is the assignment beside the table
        path = self.with_sector(self.input_file(tmp_path, "analyze"), "../ZZ")
        (tmp_path / "assignments").mkdir()
        assert self.analyze(tmp_path, [path], tmp_path / "assignments") == 2
        assert capsys.readouterr().err == f"volseg: {path}: sector '../ZZ' cannot name an output file\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("same_file", [True, False], ids=["same-file", "copy"])
    @pytest.mark.parametrize("command", ["segment", "cluster", "analyze"])
    def test_sector_held_twice_exits_2_naming_both_files(self, tmp_path, capsys, command, same_file):
        first = self.input_file(tmp_path, command)
        second = first if same_file else tmp_path / "ZZ-copy.json"
        second.write_bytes(first.read_bytes())
        if command == "analyze":
            assert self.analyze(tmp_path, [first, second], tmp_path) == 2
        else:
            assert run([command, str(first), str(second), "--out", str(tmp_path / "out")]) == 2
        a, b = sorted((first, second)) if command == "analyze" else (first, second)
        assert capsys.readouterr().err == f"volseg: {a} and {b} both hold sector ZZ\n"
