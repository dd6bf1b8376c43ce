"""Input checks of ``volseg.synthetic`` and its command line."""

import datetime as dt
import glob
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import weekday_calendar
from volseg import cli, ingest, synthetic
from volseg.calendar import TradingCalendar
from volseg.synthetic import DEMO_SECTORS, make_demo_corpus, write_tick_file

README = Path(__file__).resolve().parents[1] / "README.md"


class TestDemoDays:
    # below these day counts a sector's quiet/shock layout no longer fits
    # its grid: sector 0 needs 20 days, sector 9 needs 28
    @pytest.mark.parametrize("sectors, least", [(DEMO_SECTORS[:1], 20), (DEMO_SECTORS, 28)])
    def test_too_few_days_name_the_least_before_writing(self, tmp_path, sectors, least):
        out = tmp_path / "corpus"
        with pytest.raises(
            ValueError,
            match=rf"^a demo corpus of {len(sectors)} sectors needs at least {least} days, got {least - 1}$",
        ):
            make_demo_corpus(out, sectors=sectors, n_days=least - 1)
        assert not out.exists()

    @pytest.mark.parametrize("sectors, least", [(DEMO_SECTORS[:1], 20), (DEMO_SECTORS, 28)])
    def test_the_least_day_count_ingests(self, tmp_path, sectors, least):
        paths = make_demo_corpus(tmp_path / "corpus", sectors=sectors, n_days=least)
        ticks = [str(paths[s]) for s in sectors]
        argv = ["ingest", *ticks, "--holidays", str(paths["holidays"]), "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 0
        assert sorted(p.name for p in (tmp_path / "run" / "series").glob("*.json")) == sorted(
            f"{s}.json" for s in sectors
        )


class TestMain:
    def test_writes_the_corpus_and_lists_it(self, tmp_path, capsys):
        assert synthetic.main([str(tmp_path), "--sectors", "2", "--days", "20", "--seed", "0"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert listed == [
            f"BM: {tmp_path / 'ticks' / 'BM.csv'}",
            f"CY: {tmp_path / 'ticks' / 'CY.csv'}",
            f"events: {tmp_path / 'rate_events.csv'}",
            f"holidays: {tmp_path / 'holidays.txt'}",
        ]
        assert sorted(p.name for p in (tmp_path / "ticks").iterdir()) == ["BM.csv", "CY.csv"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--sectors", "11"], "--sectors must be between 1 and 10, got 11"),
            (["--sectors", "0"], "--sectors must be between 1 and 10, got 0"),
            (["--sectors", "-3"], "--sectors must be between 1 and 10, got -3"),
            (["--days", "0"], "--days must be at least 20 for 4 sectors, got 0"),
            (["--days", "19"], "--days must be at least 20 for 4 sectors, got 19"),
            (["--sectors", "10", "--days", "27"], "--days must be at least 28 for 10 sectors, got 27"),
            (["--seed", "-1"], "--seed must be non-negative, got -1"),
        ],
    )
    def test_bad_arguments_are_usage_errors(self, tmp_path, capsys, args, message):
        out = tmp_path / "corpus"
        with pytest.raises(SystemExit) as exc:
            synthetic.main([str(out), *args])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.rstrip().endswith(f"error: {message}")
        assert not out.exists()


class TestLevels:
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, 0.0, -1.0, 4.9999e-05, np.nextafter(5e-05, 0.0)]
    )
    def test_unprintable_level_names_its_index(self, tmp_path, bad):
        cal = weekday_calendar(dt.date(2005, 1, 3), 2)
        levels = np.full(len(cal), 100.0)
        levels[[5, 20]] = bad
        path = tmp_path / "BM.csv"
        message = f"level 5 is {float(bad)!r}: every level must be finite and at least 5e-05 to print"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            write_tick_file(path, "BM", cal, levels, seed=1)
        assert not path.exists()

    def test_least_level_is_recovered_by_resampling(self, tmp_path):
        cal = weekday_calendar(dt.date(2005, 1, 3), 3)
        levels = np.linspace(5e-05, 2.0, len(cal))
        levels[::7] = 5e-05
        path = tmp_path / "BM.csv"
        write_tick_file(path, "BM", cal, levels, seed=4)
        ticks, _ = ingest.parse_ticks(io.StringIO(path.read_text()))
        series = ingest.resample(ticks, cal)
        np.testing.assert_array_equal(series.values, [float(f"{v:.4f}") for v in levels])
        assert series.values.min() == 0.0001

    def test_years_before_1000_have_four_digits(self, tmp_path):
        # the one place the file differs from the per-tick writer it
        # replaced, whose strftime wrote "999", which ingest rejects
        cal = TradingCalendar((dt.date(999, 3, 1),), 2)
        path = tmp_path / "BM.csv"
        write_tick_file(path, "BM", cal, [100.0, 101.0], seed=1)
        assert path.read_text().splitlines()[1] == ".DJUSBM,03/01/0999,12:26:02.000,+0,Index,150.0000"
        ticks, rejects = ingest.parse_ticks(io.StringIO(path.read_text()))
        assert len(ticks) == 8 and rejects == []
        np.testing.assert_array_equal(ingest.resample(ticks, cal).values, [100.0, 101.0])


def quick_start() -> list[list[str]]:
    """The README's end-to-end commands, one argument list per command."""
    text = README.read_text().split("Try it end to end on a generated demo corpus:", 1)[1]
    block = text.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_quick_start_runs(tmp_path, capsys):
    generate, pipeline = quick_start()
    assert generate[:3] == ["python3", "-m", "volseg.synthetic"] and pipeline[:2] == ["volseg", "pipeline"]

    def here(arg: str) -> list[str]:
        # the commands write under /tmp; a glob expands as the shell would
        arg = arg.replace("/tmp/", f"{tmp_path}/")
        return sorted(glob.glob(arg)) if "*" in arg else [arg]

    assert synthetic.main([a for arg in generate[3:] for a in here(arg)]) == 0
    argv = [a for arg in pipeline[1:] for a in here(arg)]
    assert cli.main(argv) == 0
    assert (tmp_path / "run" / "analysis" / "recovery.csv").exists()
    capsys.readouterr()
