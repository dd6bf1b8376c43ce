"""What a volseg process pays for before and after its work.

- ``import volseg`` loads no submodule and no numpy; each exported name
  loads its home module on first use.
- ``import volseg.cli`` loads every CLI module but executes neither numpy
  nor zoneinfo: both are bound through ``volseg._lazy`` and execute on
  first use.  ``analyze``, ``--help`` and usage or data-error exits never
  load numpy, and ``segment`` and ``cluster`` never load a time zone.  A
  missing numpy still fails at ``import volseg.cli``.
- ``volseg.cli`` binds the stage modules ``ingest``, ``segmenter``,
  ``cluster`` and ``analysis`` the same way, and it and ``volseg.ingest``
  bind the ``calendar`` and ``divergence`` modules that the stages share,
  so each command executes only the modules it runs, writing the same
  bytes as ``pipeline``: ``ingest`` executes ``calendar`` and no ``divergence``,
  ``segment`` and ``cluster`` ``divergence`` and no ``calendar``,
  ``analyze`` and ``pipeline`` both, and ``--help`` and early exits
  neither, nor any stage.  A lazily bound module is an attribute of
  ``volseg`` at once, as ``import`` would make it, and the benchmark's
  tracer, which executes every CLI module when it wraps them, still puts
  its spans on the stages.
- ``volseg.cli`` sets ``OPENBLAS_NUM_THREADS=1`` unless the user set it,
  so numpy starts no idle BLAS worker threads when it loads.  The
  premise, that volseg makes no BLAS call, is checked on the source with
  ``ast``.
- ``python -m volseg.cli`` ends through ``cli.console_main``, which skips
  interpreter teardown; its output equals that of ``cli.main`` in process.
- ``console_main`` runs the command with the cyclic garbage collector
  off; ``cli.main`` in process leaves the caller's setting as it is.  A
  run's cyclic garbage is the argument parser and the encoder closures of
  its JSON artifacts: it holds about 0.1 MB and does not grow with the
  days.

What a fresh interpreter loads is checked in child processes.
"""

import ast
import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import volseg
from volseg import cli
from volseg.synthetic import DEMO_SECTORS, make_demo_corpus

SRC = Path(volseg.__file__).resolve().parent
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
CLI_MODULES = ("calendar", "divergence", "ingest", "segmenter", "cluster", "analysis", "cli")


def child_env(**overrides: str | None) -> dict[str, str]:
    """This process's environment with ``src`` on the path; None unsets a variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def python(*args: str, **env: str | None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(**env), capture_output=True, text=True, timeout=120
    )


def stdout_of(code: str, **env: str | None) -> str:
    proc = python("-c", code, **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyPackage:
    def test_import_loads_no_submodule_and_no_numpy(self):
        code = "import sys, volseg\nprint(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('volseg.')))"
        assert stdout_of(code) == "[]\n"

    def test_every_export_is_its_home_modules_object(self):
        code = (
            "import sys, volseg\n"
            "for name in volseg.__all__:\n"
            "    scope = {}\n"
            "    exec(f'from volseg import {name}', scope)\n"
            "    obj = scope[name]\n"
            "    home = obj.__module__\n"
            "    ok = home.startswith('volseg.') and getattr(sys.modules[home], name) is obj\n"
            "    print(name, home, ok)\n"
        )
        lines = stdout_of(code).splitlines()
        assert len(lines) == len(volseg.__all__) == 40
        assert [line for line in lines if not line.endswith(" True")] == []

    def test_dir_lists_every_export_before_first_use(self):
        code = "import volseg\nprint(sorted(set(volseg.__all__) - set(dir(volseg))))"
        assert stdout_of(code) == "[]\n"

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            volseg.no_such_name
        with pytest.raises(ImportError):
            from volseg import no_such_name  # noqa: F401


# ---------------------------------------------------------------------------
# numpy and zoneinfo execute on first use

# a list of the numpy and time-zone modules a child has executed; the lazy
# ``numpy`` and ``zoneinfo`` entries themselves are there from the import on
EXECUTED = (
    "sorted(m for m in sys.modules if m.startswith(('numpy.', 'zoneinfo.')) or m == '_zoneinfo')"
)


def numpy_of(modules: list[str]) -> list[str]:
    return [m for m in modules if m.startswith("numpy.")]


def zoneinfo_of(modules: list[str]) -> list[str]:
    return [m for m in modules if m.startswith("zoneinfo.") or m == "_zoneinfo"]


class TestLazyNumpy:
    def test_cli_import_loads_every_module_but_executes_no_numpy_or_zoneinfo(self):
        code = (
            "import sys, volseg.cli\n"
            f"print(all('volseg.' + name in sys.modules for name in {CLI_MODULES!r}))\n"
            f"print({EXECUTED})\n"
        )
        assert stdout_of(code) == "True\n[]\n"

    def test_first_use_executes_the_module(self):
        code = (
            "import sys, volseg.cli as c\n"
            "import numpy\n"
            "print(c.np is numpy is sys.modules['numpy'], c.np.zeros(2).tolist())\n"
            "print(c.calendar.TradingCalendar((c.dt.date(2008, 3, 10),))[0])\n"
            f"print({EXECUTED})\n"
        )
        first, second, modules = stdout_of(code).splitlines()
        assert (first, second) == ("True [0.0, 0.0]", "2008-03-10 13:30:00+00:00")
        modules = ast.literal_eval(modules)
        assert numpy_of(modules) != [] and zoneinfo_of(modules) != []

    def test_lazy_returns_a_loaded_module_as_it_is(self):
        assert volseg._lazy("json") is json
        assert volseg._lazy("numpy") is sys.modules["numpy"]

    def test_lazy_missing_module_fails_at_once(self):
        with pytest.raises(ModuleNotFoundError, match="no_such_module_here") as info:
            volseg._lazy("no_such_module_here")
        assert info.value.name == "no_such_module_here"

    def test_blocked_numpy_fails_at_cli_import(self):
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "try:\n"
            "    import volseg.cli\n"
            "except ModuleNotFoundError as exc:\n"
            "    print(exc.name, exc)\n"
        )
        assert stdout_of(code) == "numpy import of numpy halted; None in sys.modules\n"

    def test_missing_numpy_fails_at_cli_import(self):
        # without the site directories, where numpy is installed
        if python("-S", "-c", "import numpy").returncode == 0:
            pytest.skip("numpy is importable without site-packages")
        proc = python("-S", "-c", "import volseg.cli")
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == "ModuleNotFoundError: No module named 'numpy'"


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """A pipeline run's inputs and output directory."""
    root = tmp_path_factory.mktemp("lazy")
    paths = make_demo_corpus(root / "corpus", sectors=("BM", "CY"), n_days=60, seed=11)
    out = root / "out"
    argv = [
        "pipeline", str(paths["BM"]), str(paths["CY"]), "--out", str(out),
        "--holidays", str(paths["holidays"]), "--events", str(paths["events"]),
    ]
    assert cli.main(argv) == 0
    return paths, out


def run_and_list(*argv: str, listing: str = EXECUTED) -> tuple[int, list[str]]:
    """``cli.main(argv)`` in a child: its exit code and ``listing`` by its
    end, by default the numpy and time-zone modules it executed."""
    code = f"import importlib.util, sys, volseg.cli\nrc = volseg.cli.main(sys.argv[1:])\nprint(rc, {listing})\n"
    proc = python("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    rc, modules = proc.stdout.splitlines()[-1].split(" ", 1)
    return int(rc), ast.literal_eval(modules)


def test_analyze_loads_no_numpy(pipeline_out, tmp_path):
    paths, out = pipeline_out
    rc, modules = run_and_list(
        "analyze", "--segments", *sorted(map(str, (out / "segments").glob("*.json"))),
        "--assignments-dir", str(out / "clusters"), "--calendar", str(out / "calendar.json"),
        "--events", str(paths["events"]), "--out", str(tmp_path),
    )
    assert rc == 0
    assert numpy_of(modules) == []
    assert zoneinfo_of(modules) != []  # the calendar's time zone is resolved
    assert tree_of(tmp_path / "analysis") == tree_of(out / "analysis")


def test_segment_and_cluster_load_no_time_zone(pipeline_out, tmp_path):
    _, out = pipeline_out
    series = sorted(map(str, (out / "series").glob("*.json")))
    rc, modules = run_and_list("segment", *series, "--out", str(tmp_path))
    assert rc == 0 and numpy_of(modules) != []
    assert zoneinfo_of(modules) == []
    assert tree_of(tmp_path / "segments") == tree_of(out / "segments")

    tables = sorted(map(str, (tmp_path / "segments").glob("*.json")))
    rc, modules = run_and_list("cluster", *tables, "--out", str(tmp_path))
    assert rc == 0 and numpy_of(modules) != []
    assert zoneinfo_of(modules) == []
    assert tree_of(tmp_path / "clusters") == tree_of(out / "clusters")


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["segment", "--help"], 0), (["bogus"], 1), (["segment", "--cutoff", "x"], 1),
     (["segment", "no-such-series.json", "--out", "unused"], 2)],
    ids=["help", "command-help", "usage", "bad-value", "data-error"],
)
def test_early_exits_load_no_numpy(argv, code):
    rc, modules = run_and_list(*argv)
    assert rc == code
    assert modules == []


# ---------------------------------------------------------------------------
# each command executes only the modules it runs

# the volseg modules a child has executed, short names; a lazy entry's type
# is read without touching its attributes, which would execute it
EXECUTED_VOLSEG = (
    "sorted(name[7:] for name, module in sys.modules.items()"
    " if name.startswith('volseg.') and type(module) is not importlib.util._LazyModule)"
)
EAGER = ["artifacts", "cli"]
STAGES = ["analysis", "cluster", "ingest", "segmenter"]
SHARED = ["calendar", "divergence"]  # executed by the commands that use them


def test_lazy_stage_is_bound_on_its_package():
    code = (
        "import importlib.util, sys, volseg.cli\n"
        "print(type(vars(volseg)['analysis']) is importlib.util._LazyModule)\n"
        "import volseg.analysis\n"
        "print(volseg.analysis.Shock.__module__)\n"
        "from volseg import analysis\n"
        "print(analysis is volseg.cli.analysis is sys.modules['volseg.analysis'])\n"
    )
    assert stdout_of(code) == "True\nvolseg.analysis\nTrue\n"


def step_argv(command: str, paths: dict, out: Path, dest: Path) -> list[str]:
    """The argv of one step of the pipeline run ``out``, reading that run's files and writing to ``dest``."""
    inputs = {
        "ingest": [str(paths["BM"]), str(paths["CY"]), "--holidays", str(paths["holidays"])],
        "segment": sorted(map(str, (out / "series").glob("*.json"))),
        "cluster": sorted(map(str, (out / "segments").glob("*.json"))),
        "analyze": [
            "--segments", *sorted(map(str, (out / "segments").glob("*.json"))),
            "--assignments-dir", str(out / "clusters"), "--calendar", str(out / "calendar.json"),
            "--events", str(paths["events"]),
        ],
    }
    return [command, *inputs[command], "--out", str(dest)]


# what each step writes, as paths under --out
STEP_OUTPUTS = {
    "ingest": ["series", "calendar.json", "manifest.json"],
    "segment": ["segments"],
    "cluster": ["clusters"],
    "analyze": ["analysis"],
}


def outputs_of(command: str, root: Path) -> dict[Path, bytes]:
    return {path: data for path, data in tree_of(root).items() if path.parts[0] in STEP_OUTPUTS[command]}


@pytest.mark.parametrize(
    "command, stages",
    [
        ("ingest", ["calendar", "ingest"]),
        ("segment", ["divergence", "ingest", "segmenter"]),
        ("cluster", ["cluster", "divergence", "segmenter"]),
        ("analyze", ["analysis", "calendar", "cluster", "divergence", "segmenter"]),
    ],
)
def test_step_executes_only_its_stages(pipeline_out, tmp_path, command, stages):
    paths, out = pipeline_out
    rc, modules = run_and_list(*step_argv(command, paths, out, tmp_path), listing=EXECUTED_VOLSEG)
    assert rc == 0
    assert modules == sorted(EAGER + stages)
    assert outputs_of(command, tmp_path) == outputs_of(command, out)


def test_pipeline_executes_every_stage(pipeline_out, tmp_path):
    paths, out = pipeline_out
    rc, modules = run_and_list(
        "pipeline", str(paths["BM"]), str(paths["CY"]), "--out", str(tmp_path),
        "--holidays", str(paths["holidays"]), "--events", str(paths["events"]), listing=EXECUTED_VOLSEG,
    )
    assert rc == 0
    assert modules == sorted(EAGER + SHARED + STAGES)
    for command in STEP_OUTPUTS:
        assert outputs_of(command, tmp_path) == outputs_of(command, out)


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["cluster", "--help"], 0), (["bogus"], 1), (["segment", "--cutoff", "x"], 1),
     (["segment", "no-such-series.json", "--out", "unused"], 2),
     (["cluster", "no-such-table.json", "--out", "unused", "--k-min", "0"], 2)],
    ids=["help", "command-help", "usage", "bad-value", "data-error", "range-error"],
)
def test_early_exits_execute_no_stage(argv, code):
    rc, modules = run_and_list(*argv, listing=EXECUTED_VOLSEG)
    assert rc == code
    assert modules == EAGER


def test_tracer_spans_the_lazily_loaded_stages(pipeline_out, tmp_path):
    tracer = SRC.parents[1] / "bench" / "tracer.py"
    if not tracer.exists():
        pytest.skip("not a source checkout")
    np = pytest.importorskip("numpy")
    paths, out = pipeline_out
    spans = {}
    for command, src in (("segment", out), ("cluster", tmp_path)):
        spans_file = tmp_path / f"{command}.npz"
        argv = step_argv(command, paths, src, tmp_path)
        proc = python(str(tracer), "--launch", "0", "--spans", str(spans_file), "--", *argv)
        assert proc.returncode == 0, proc.stderr
        assert outputs_of(command, tmp_path) == outputs_of(command, out)
        with np.load(spans_file) as data:
            spans[command] = set(data["table"].tolist())
    assert {"segmenter.recursive_segment", "divergence.PrefixSums.scan"} <= spans["segment"]
    assert "cluster.complete_link" in spans["cluster"]


# ---------------------------------------------------------------------------
# the BLAS thread default

BLAS_FUNCTIONS = {
    "dot", "matmul", "linalg", "einsum", "inner", "outer", "tensordot", "vdot",
    "cov", "corrcoef", "polyfit", "lstsq",
}


def blas_calls(tree: ast.Module) -> list[str]:
    """Uses of BLAS-backed numpy functions: attributes of a numpy alias
    (imported, or bound by ``_lazy("numpy")``), names imported from numpy,
    any ``.dot`` or ``.linalg``, and ``@``."""
    aliases = {"numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "numpy")
            found += [f"import {a.name}" for a in node.names if a.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.Assign) and ast.unparse(node.value) == "_lazy('numpy')":
            aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Attribute) and node.attr in BLAS_FUNCTIONS:
            on_numpy = isinstance(node.value, ast.Name) and node.value.id in aliases
            if on_numpy or node.attr in ("dot", "linalg"):
                found.append(f"line {line}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names = [a.name for a in node.names if a.name in BLAS_FUNCTIONS]
            if names or node.module.startswith("numpy.linalg"):
                found.append(f"line {line}: from {node.module} import {names or '...'}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {line}: @")
    return found


def test_volseg_makes_no_blas_call():
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := blas_calls(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_blas_guard_sees_every_form():
    tree = ast.parse(
        "import numpy as np\nimport numpy.linalg\nfrom numpy import einsum\nfrom numpy.linalg import norm\n"
        "a = np.dot(x, y)\nb = x.dot(y)\nc = x @ y\nc @= y\nd = np.linalg.solve(x, y)\n"
        "e = np.cov(x)\nf = np.outer(x, y)\ng = np.lstsq\n"
        "ok = np.multiply.outer(x, y) + np.sum(x) + outer + inner\n"
    )
    assert len(blas_calls(tree)) == 11
    assert blas_calls(ast.parse("import numpy as np\nx = np.add.outer(a, b) @ 1")) == ["line 2: @"]
    assert blas_calls(ast.parse('xp = _lazy("numpy")\ny = xp.cov(x)\nz = np.cov(x)')) == ["line 2: .cov"]


def threads_after_import(**env: str | None) -> tuple[str, int]:
    """OPENBLAS_NUM_THREADS and the thread count once ``import volseg.cli``
    has run and numpy has then executed, as a command's first array does."""
    code = (
        "import os, sys, volseg.cli\n"
        "import numpy\n"
        "numpy.zeros(1)\n"
        "assert any(m.startswith('numpy.') for m in sys.modules)\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))"
    )
    value, threads = stdout_of(code, **env).split()
    return value, int(threads)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 or not os.path.isdir("/proc/self/task"),
    reason="needs Linux /proc and at least two CPUs, where OpenBLAS would start worker threads",
)
def test_cli_import_starts_no_blas_threads():
    assert threads_after_import(**dict.fromkeys(BLAS_VARIABLES)) == ("1", 1)


def test_user_blas_setting_wins():
    value, _ = threads_after_import(OPENBLAS_NUM_THREADS="2")
    assert value == "2"


# ---------------------------------------------------------------------------
# the fast exit: nothing is lost when a child ends without teardown


def tree_of(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def run_cli(*argv: str, **env: str | None) -> subprocess.CompletedProcess:
    """``python -m volseg.cli`` with piped, hence block-buffered, stdout and stderr."""
    return python("-m", "volseg.cli", *argv, PYTHONUNBUFFERED=None, **env)


def test_child_pipeline_equals_in_process_run(tmp_path, capsys):
    paths = make_demo_corpus(tmp_path / "corpus", sectors=("BM", "CY"), n_days=60, seed=7)
    out = tmp_path / "out"
    argv = [
        "pipeline", str(paths["BM"]), str(paths["CY"]), "--out", str(out),
        "--holidays", str(paths["holidays"]), "--events", str(paths["events"]),
    ]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    in_process = tree_of(out)
    shutil.rmtree(out)

    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert "BM:" in stdout
    assert proc.stdout == stdout
    assert tree_of(out) == in_process


def test_child_data_error_keeps_its_message(tmp_path):
    missing = tmp_path / "nope.csv"
    proc = run_cli("pipeline", str(missing), "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"volseg: input file not found: {missing}\n"


def test_child_help_is_whole(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(["--help"]) == 0
    help_text = capsys.readouterr().out
    proc = run_cli("--help", COLUMNS="80")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == help_text
    assert help_text.startswith("usage: volseg") and "pipeline" in help_text


def test_console_main_flushes_before_it_exits():
    # short writes stay in the buffers: stdout's is a block, stderr's a line
    code = (
        "import sys, volseg.cli as c\n"
        "def main():\n"
        "    for i in range(3000):\n"
        "        print(i)\n"
        "    sys.stderr.write('done')\n"
        "    return 3\n"
        "c.main = main\n"
        "c.console_main()\n"
        "print('after')\n"
    )
    proc = python("-c", code, PYTHONUNBUFFERED=None)
    assert proc.returncode == 3
    assert proc.stdout == "".join(f"{i}\n" for i in range(3000))
    assert proc.stderr == "done"


def test_console_main_lets_an_uncaught_error_print_its_traceback():
    code = "import volseg.cli as c\nc.main = lambda: 1 / 0\nc.console_main()\n"
    proc = python("-c", code, PYTHONUNBUFFERED=None)
    assert proc.returncode == 1
    assert proc.stderr.startswith("Traceback") and "ZeroDivisionError" in proc.stderr


def test_console_script_ends_through_console_main():
    pyproject = SRC.parents[1] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("not a source checkout")
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"volseg": "volseg.cli:console_main"}


# ---------------------------------------------------------------------------
# the cyclic garbage collector: off in a child, as the caller left it in process

# records, in the file GC_PROBE_REPORT, whether the collector was on at each
# open of a path under GC_PROBE_OUT, one line per open
GC_PROBE = """\
import gc, os, sys
_out = os.environ["GC_PROBE_OUT"]
_report = open(os.environ["GC_PROBE_REPORT"], "w", buffering=1)
def _hook(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)) and os.fspath(args[0]).startswith(_out):
        _report.write(f"{gc.isenabled()} {os.fspath(args[0])}\\n")
sys.addaudithook(_hook)
"""


def test_child_runs_its_command_with_the_gc_off(pipeline_out, tmp_path):
    paths, _ = pipeline_out
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(GC_PROBE)
    out, report = tmp_path / "out", tmp_path / "opens.txt"
    proc = run_cli(
        "pipeline", str(paths["BM"]), str(paths["CY"]), "--out", str(out), "--events", str(paths["events"]),
        PYTHONPATH=os.pathsep.join([str(site), str(SRC.parent)]), GC_PROBE_OUT=str(out), GC_PROBE_REPORT=str(report),
    )
    assert proc.returncode == 0, proc.stderr
    opens = [line.split(" ", 1) for line in report.read_text().splitlines()]
    assert len(opens) > len(STEP_OUTPUTS)
    assert opens[-1][1] == str(out / "resolved_config.json")
    assert {enabled for enabled, _ in opens} == {"False"}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_in_process_leaves_the_gc_as_the_caller_set_it(pipeline_out, tmp_path, enabled):
    paths, out = pipeline_out
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(step_argv("cluster", paths, out, tmp_path)) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# A pipeline run, collector off, leaves 564 objects in reference cycles
# (mostly the argument parser) and 99 more per sector (the pure-Python JSON
# encoder's closures, three JSON artifacts per sector), whatever the number
# of days: 762 for 2 sectors x 60 days, 1,158 for 6 x 240 and 1,554 for the
# ten-sector, 2,254-day corpus.  They hold about 95 kB plus 9 kB per
# sector (tracemalloc): 113 kB at 2 x 60 and at 2 x 240, 150 kB at 6 x 240.
# A cycle that held a series or the ticks would grow with the days.
GARBAGE_BASE = 620
GARBAGE_PER_SECTOR = 110
GARBAGE_BYTES_BASE = 128 * 1024
GARBAGE_BYTES_PER_SECTOR = 16 * 1024


def test_cyclic_garbage_is_small_and_does_not_grow_with_the_days(tmp_path):
    runs = {}
    for name, sectors, days in (("warm-up", 2, 30), ("small", 2, 60), ("large", 6, 240)):
        paths = make_demo_corpus(tmp_path / name, sectors=DEMO_SECTORS[:sectors], n_days=days, seed=5)
        ticks = [str(paths[s]) for s in DEMO_SECTORS[:sectors]]
        runs[name] = sectors, ["pipeline", *ticks, "--out", str(tmp_path / f"{name}-out"),
                               "--holidays", str(paths["holidays"]), "--events", str(paths["events"])]
    was = gc.isenabled()
    freed, held = {}, {}
    gc.disable()
    tracemalloc.start()
    try:
        for name, (_, argv) in runs.items():
            gc.collect()
            assert cli.main(argv) == 0
            before = tracemalloc.get_traced_memory()[0]
            freed[name] = gc.collect()
            held[name] = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if was:
            gc.enable()
    added = runs["large"][0] - runs["small"][0]
    for name in ("small", "large"):  # the warm-up run may free what imports left
        sectors = runs[name][0]
        assert freed[name] < GARBAGE_BASE + GARBAGE_PER_SECTOR * sectors, name
        assert held[name] < GARBAGE_BYTES_BASE + GARBAGE_BYTES_PER_SECTOR * sectors, name
    assert freed["large"] <= freed["small"] + GARBAGE_PER_SECTOR * added
    assert held["large"] <= held["small"] + GARBAGE_BYTES_PER_SECTOR * added
