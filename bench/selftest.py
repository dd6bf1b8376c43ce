#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs (about half a minute).

Run from the repository root:

    python3 bench/selftest.py

For a tiny version of each workload it checks that every metric named in
BENCHMARK.json is reported with its unit, that the traced spans nest and
their self times sum to ``trace.total_s``, and that corrupting one byte of
one artifact makes that invocation fail (``ok_frac`` below 1).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))  # workloads imports volseg

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import DemoLayout, ManyLeaf  # noqa: E402

TINY = {
    "demo": DemoLayout(sectors=3, days=30),
    "paper": DemoLayout(sectors=2, days=60),
    "manyleaf": ManyLeaf(sectors=2, days=60),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(name: str, outcome: run.Outcome, spec: dict) -> None:
    for kind, traced in (("end_to_end", False), ("per_layer", True)):
        reported = outcome.result(traced)["metrics"]
        for metric in spec[kind]:
            check(metric["name"] in reported, f"{name}: {kind} metric {metric['name']} missing")
            unit = reported[metric["name"]]["unit"]
            check(unit == metric["unit"], f"{name}: {metric['name']} reported in {unit}, declared {metric['unit']}")
    e2e = outcome.end_to_end
    check(outcome.failed == 0 and e2e["ok_frac"] == 1.0, f"{name}: clean run has failures")
    check(e2e["boundary_recall"] > 0 and outcome.per_layer["boundary_precision"] > 0,
          f"{name}: no planted boundary found")


def check_spans(name: str, spans_dir: Path, per_layer: dict) -> None:
    own = total = 0.0
    for trace in tracer.load(sorted(spans_dir.glob("*.npz"))):
        tracer.check_nesting(trace)  # raises ValueError on a bad span
        roots = [i for i, p in enumerate(trace["parent"]) if p < 0]
        check(len(roots) == 1 and trace["table"][trace["name"][roots[0]]] == "cli.main",
              f"{name}: expected one cli.main root span per process")
        own += float(tracer.self_times(trace).sum())
        total += float(trace["end"][roots[0]] - trace["start"][roots[0]])
    layers = sum(v for k, v in per_layer.items() if k.endswith(".self_s"))
    check(math.isclose(own, total, rel_tol=1e-9), f"{name}: span self times {own} != root spans {total}")
    check(math.isclose(layers, per_layer["trace.total_s"], rel_tol=1e-9),
          f"{name}: layer self times {layers} != trace.total_s {per_layer['trace.total_s']}")


def corrupting(invoke, nth: int):
    """``run.invoke`` that flips one byte of one artifact on its nth call."""
    calls = 0

    def wrapped(steps, env, log, spans_dir=None):
        nonlocal calls
        inv = invoke(steps, env, log, spans_dir)
        calls += 1
        if calls == nth:
            out = Path(steps[-1][steps[-1].index("--out") + 1])
            victim = sorted(p for p in out.rglob("*") if p.is_file())[-1]
            data = bytearray(victim.read_bytes())
            data[-1] ^= 0x01
            victim.write_bytes(bytes(data))
        return inv

    return wrapped


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / run.WORK_DIR / f"selftest-{os.getpid()}"
    try:
        for name, workload in TINY.items():
            outcome = run.run_workload(name, workload, 1, 0.0, True, work / name, src)
            check_metrics(name, outcome, spec)
            check_spans(name, work / name / "spans", outcome.per_layer)
            print(f"selftest {name}: metrics, spans ok")

        clean_invoke = run.invoke
        run.invoke = corrupting(clean_invoke, nth=2)
        try:
            outcome = run.run_workload("demo", TINY["demo"], 1, 0.0, False, work / "corrupt", src)
        finally:
            run.invoke = clean_invoke
        check(outcome.end_to_end["ok_frac"] < 1.0, "a corrupted artifact went unnoticed")
        check(not outcome.result(False)["correct"], "a corrupted artifact left the run correct")
        print(f"selftest corruption: ok_frac {outcome.end_to_end['ok_frac']:.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / run.WORK_DIR).rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
