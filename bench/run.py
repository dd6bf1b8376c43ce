#!/usr/bin/env python3
"""Benchmark of the volseg command line, one workload per run.

Run from the root of a volseg checkout:

    python3 bench/run.py --workload demo --seed 1 --seconds 25 --trace 0

Set-up writes the workload's inputs from ``--seed`` with
``volseg.synthetic`` (plus, for ``manyleaf``, one ``volseg ingest``); it runs
three times and its median is ``setup_s``.  The truth the checks use is
rebuilt from the seed once, outside the timed set-up.  After each set-up the run
spends a third of ``--seconds`` repeating the workload's invocation --
``python -m volseg.cli`` child processes started one at a time from this
process -- at least once, and again while one more of median length
would end nearer the share's end than the last one did.  Each
invocation is checked against the generated truth: exit code 0, every
series value equal to the generated level at 4 decimals, and an artifact
tree byte-identical to the run's first invocation.  Every reported time is
divided by the host's slowdown over its interval, measured by
``bench/hostprobe.py``, so it reads as the time at that module's reference
speed; the times as measured go to the context line.  With ``--trace 1`` one
more invocation runs under ``bench/tracer.py`` and the per-layer metrics
come from its spans.

stdout ends with two JSON lines: the run's context (machine, versions,
``src/`` size, invocation count; not gated) and the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hostprobe import HostProbe

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
PROCESS_TIMEOUT_S = 150.0
BOUNDARY_TOLERANCE = 14  # returns; one trading day
WORK_DIR = ".bench_work"

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "fraction",
    "boundary_recall": "fraction",
}


class BenchError(Exception):
    pass


@dataclass(frozen=True)
class Invocation:
    ok: bool  # every process exited 0
    start: float  # perf_counter() when the first process started
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(cmd: list[str], env: dict[str, str], log: Path) -> tuple[int, os.struct_rusage]:
    """Run one child to completion; returns its exit code and resource usage."""
    with open(log, "ab") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def invoke(steps, env: dict[str, str], log: Path, spans_dir: Path | None = None) -> Invocation:
    """Run the steps of one invocation in order, stopping at the first failure."""
    cpu = rss_kb = 0.0
    ok = True
    start = time.perf_counter()
    for i, argv in enumerate(steps):
        if spans_dir is None:
            cmd = [sys.executable, "-m", "volseg.cli", *argv]
        else:
            cmd = [
                sys.executable, str(BENCH_DIR / "tracer.py"),
                "--spans", str(spans_dir / f"{i}.npz"),
                "--launch", repr(time.perf_counter()),
                "--", *argv,
            ]
        rc, usage = run_process(cmd, env, log)
        cpu += usage.ru_utime + usage.ru_stime
        rss_kb = max(rss_kb, usage.ru_maxrss)
        if rc != 0:
            ok = False
            break
    wall = time.perf_counter() - start
    return Invocation(ok, start, wall, cpu, rss_kb * 1024 / 1e6)


def tree_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def series_match(series_dir: Path, levels: dict) -> bool:
    """Every series value equals the generated level written at 4 decimals."""
    for sector, expected in levels.items():
        path = series_dir / f"{sector}.json"
        try:
            values = [float(v) for v in json.loads(path.read_text())["values"]]
        except (OSError, ValueError, KeyError, TypeError):
            return False
        if len(values) != len(expected) or values != expected.tolist():
            return False
    return True


def boundary_scores(out: Path, planted: dict) -> tuple[float, float]:
    """Recall of planted and precision of reported boundaries, pooled over
    sectors; a match lies within BOUNDARY_TOLERANCE returns."""
    recalled = precise = n_planted = n_reported = 0
    for sector, truth in planted.items():
        rows = json.loads((out / "segments" / f"{sector}.json").read_text())["rows"]
        reported = np.array([int(r["start"]) - 1 for r in rows[1:]], dtype=np.int64)
        n_planted += truth.size
        n_reported += reported.size
        recalled += int(np.count_nonzero(nearest_gap(truth, reported) <= BOUNDARY_TOLERANCE))
        precise += int(np.count_nonzero(nearest_gap(reported, truth) <= BOUNDARY_TOLERANCE))
    recall = recalled / n_planted if n_planted else 0.0
    precision = precise / n_reported if n_reported else 0.0
    return recall, precision


def nearest_gap(points, targets):
    """Distance from each point to the nearest target (inf without targets)."""
    if targets.size == 0:
        return np.full(points.size, np.inf)
    idx = np.searchsorted(targets, points)
    left = targets[np.clip(idx - 1, 0, targets.size - 1)]
    right = targets[np.clip(idx, 0, targets.size - 1)]
    return np.minimum(np.abs(points - left), np.abs(points - right))


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((src / "volseg").glob("*.py")))


def machine_context() -> dict[str, object]:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            name = f"L{(index / 'level').read_text().strip()} {(index / 'type').read_text().strip()}"
            caches[name] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model or platform.processor(), "caches": caches}


@dataclass
class Outcome:
    """Everything one benchmark run measured."""

    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None  # None unless traced
    context: dict[str, object]

    def result(self, traced: bool) -> dict:
        if traced:
            metrics = {name: (v, layer_unit(name)) for name, v in self.per_layer.items()}
        else:
            metrics = {name: (v, END_TO_END_UNITS[name]) for name, v in self.end_to_end.items()}
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        }


def run_workload(
    name: str, workload, seed: int, seconds: float, trace: bool, work: Path, src: Path
) -> Outcome:
    """Set up, time and check one workload inside ``work``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    log = work / "stderr.log"
    inputs = work / "inputs"
    out = work / "out"
    spans_dir = work / "spans"
    work.mkdir(parents=True, exist_ok=True)

    # the truth is the same for every set-up of this seed; building it is
    # the checker's work, so it stays out of setup_s
    truth = workload.truth(seed)

    setups: list[tuple[float, float]] = []  # start, seconds
    invocations: list[Invocation] = []
    traced = None
    passed = 0
    reference = None
    recall = precision = 0.0
    spent = 0.0
    with HostProbe() as probe:
        # compile bytecode and load numpy once, so no timed process pays for it
        rc, _ = run_process([sys.executable, "-c", "import volseg.cli"], env, log)
        if rc != 0:
            raise BenchError(f"volseg.cli does not import: {tail(log)}")

        # The timed loop is split into one share after each set-up, so its
        # invocations sample the whole run: the machine's speed drifts over
        # tens of seconds, and a longer sampled span steadies the median.
        for rep in range(SETUP_REPEATS):
            shutil.rmtree(inputs, ignore_errors=True)
            start = time.perf_counter()
            prepared = workload.prepare(inputs, out, seed)
            for argv in prepared.setup_steps:
                rc, _ = run_process([sys.executable, "-m", "volseg.cli", *argv], env, log)
                if rc != 0:
                    raise BenchError(f"set-up step {argv[0]} exited {rc}: {tail(log)}")
            setups.append((start, time.perf_counter() - start))
            # series written by set-up are checked once per set-up, series an
            # invocation writes after every invocation
            setup_series = not prepared.series_dir.is_relative_to(out)
            setup_series_ok = setup_series and series_match(prepared.series_dir, truth.levels)

            share_end = seconds * (rep + 1) / SETUP_REPEATS
            while True:
                start = time.perf_counter()
                shutil.rmtree(out, ignore_errors=True)
                inv = invoke(prepared.steps, env, log)
                invocations.append(inv)
                digests = tree_digests(out)
                if reference is None:
                    reference = digests
                    if inv.ok:
                        recall, precision = boundary_scores(out, truth.boundaries)
                series_ok = (
                    setup_series_ok if setup_series else series_match(prepared.series_dir, truth.levels)
                )
                passed += inv.ok and digests == reference and series_ok
                if not inv.ok:
                    print(f"bench: invocation {len(invocations)} failed: {tail(log)}", file=sys.stderr)
                spent += time.perf_counter() - start
                # start another if a typical one would end nearer the share's
                # end than this one did, so the loop spends about --seconds
                if spent + statistics.median(i.wall_s for i in invocations) / 2 > share_end:
                    break

        if trace:
            spans_dir.mkdir(exist_ok=True)
            shutil.rmtree(out, ignore_errors=True)
            traced = invoke(prepared.steps, env, log, spans_dir)
            if not (traced.ok and tree_digests(out) == reference):
                raise BenchError(f"traced invocation failed or changed the artifacts: {tail(log)}")

    # every time is reported at the reference speed (see hostprobe.py)
    slowdown = [probe.slowdown(i.start, i.start + i.wall_s) for i in invocations]
    end_to_end = {
        "wall_s": statistics.median(i.wall_s / f for i, f in zip(invocations, slowdown)),
        "cpu_s": statistics.median(i.cpu_s / f for i, f in zip(invocations, slowdown)),
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in invocations),
        "setup_s": statistics.median(t / probe.slowdown(s, s + t) for s, t in setups),
        "ok_frac": passed / len(invocations),
        "boundary_recall": recall,
    }
    attempted = len(invocations)
    failed = attempted - passed

    per_layer = None
    if traced is not None:
        from tracer import layer_metrics, load

        attempted += 1
        per_layer = layer_metrics(load(sorted(spans_dir.glob("*.npz"))))
        files = [p for p in out.rglob("*") if p.is_file()]
        per_layer["cli.artifacts"] = len(files)
        per_layer["cli.artifact_bytes"] = sum(p.stat().st_size for p in files)
        # the span self times are as measured, so this is too
        per_layer["trace.wall_s"] = traced.wall_s
        traced_at_speed = traced.wall_s / probe.slowdown(traced.start, traced.start + traced.wall_s)
        per_layer["trace.overhead_s"] = traced_at_speed - end_to_end["wall_s"]
        per_layer["host.slowdown"] = statistics.median(slowdown)
        # deterministic for a seed, but at paper scale it ranges from about
        # 0.4 to 1 across seeds, wider than any end-to-end bound could allow
        per_layer["boundary_precision"] = precision

    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "invocations": len(invocations),
        "invocation_wall_s": [i.wall_s for i in invocations],
        "invocation_slowdown": slowdown,
        "measured_wall_s": statistics.median(i.wall_s for i in invocations),
        "measured_cpu_s": statistics.median(i.cpu_s for i in invocations),
        "measured_setup_s": statistics.median(t for _, t in setups),
        "setup_repeats": SETUP_REPEATS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines(src),
        **machine_context(),
    }
    return Outcome(attempted, failed, end_to_end, per_layer, context)


def layer_unit(name: str) -> str:
    if name == "boundary_precision":
        return "fraction"
    if name == "host.slowdown":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("us_per_row"):
        return "us/row"
    if name.endswith("points_per_return"):
        return "points/return"
    return "count"


def tail(log: Path) -> str:
    """The last five lines of a child's stderr log, on one line."""
    try:
        return " | ".join(log.read_text(errors="replace").splitlines()[-5:])
    except OSError:
        return ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="volseg benchmark (run from the repository root)")
    parser.add_argument("--workload", required=True, choices=("demo", "paper", "manyleaf"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    src = root / "src"
    if not (src / "volseg" / "cli.py").is_file():
        print(f"bench: no volseg sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcome = run_workload(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), work, src,
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    print(json.dumps({"context": outcome.context}))
    print(json.dumps(outcome.result(bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
