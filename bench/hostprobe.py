"""How much slower than a fixed reference speed the host ran, per interval.

On a shared virtual machine the speed of each CPU drifts: while a
neighbour loads the physical core under it, the same work takes up to
about twice as long, in phases that last from under a second to minutes
and come and go independently on each CPU.  Every process on that CPU
slows alike, so its CPU time grows with its wall time and neither can
tell a slow program from a slow phase.

``HostProbe`` runs one thread per CPU the benchmark may use, pinned to
that CPU.  Every ``PERIOD_S`` the thread times a fixed burst of
pure-Python work (about 0.25 ms, so about 1% of each CPU) and notes how
many jiffies that CPU spent busy since its previous burst.  After the run,
``slowdown(t0, t1)`` is the mean, weighted by those busy jiffies, of each
burst's time between ``t0`` and ``t1`` over ``REFERENCE_BURST_S``.  The
weights follow the work: a CPU on which the measured processes ran
counts, an idle one does not, so a process that moves between CPUs, or a
pool spread over several, is judged by the CPUs it used.

Dividing a time by ``slowdown`` over its interval gives the time the same
work would take on a CPU that runs the burst in ``REFERENCE_BURST_S``.
The reference is a constant, not a percentile of the run's own bursts,
because a run of half a minute may never see the host uncontended.  The
division assumes the program slows by the same factor as the burst; both
are interpreter-bound Python.  On a 2-vCPU KVM guest whose ``paper``
invocations took from 4.1 to 6.8 s as measured, the adjusted medians of
five runs spread 0.054 of their median (quartile distance), against 0.18
for a reference taken from each run's fastest tenth of bursts.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

PERIOD_S = 0.02
BURST_ITERATIONS = 400
# the burst's time on an uncontended CPU of the host the bounds were set on
# (2-vCPU KVM guest, Intel Xeon family 6 model 143, Python 3.11.7)
REFERENCE_BURST_S = 240e-6
MAX_RATIO = 3.0


def burst() -> float:
    """Seconds one fixed piece of interpreter-bound work takes."""
    start = time.perf_counter()
    seen = {}
    for i in range(BURST_ITERATIONS):
        text = f"{i * 0.37:.4f}"
        seen[text] = float(text)
    return time.perf_counter() - start


def busy_jiffies(cpu: int) -> int:
    """Jiffies ``cpu`` has spent in user, nice, system, irq and softirq time."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as stat:
        for line in stat:
            if line.startswith(prefix):
                fields = line.split()
                return sum(int(fields[k]) for k in (1, 2, 3, 6, 7))
    return 0


class HostProbe:
    """Context manager that samples every usable CPU's speed while open."""

    def __init__(self) -> None:
        self._ticks: list[tuple[float, int, float, int]] = []  # time, cpu, burst s, busy jiffies
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._watch, args=(cpu,), daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def __enter__(self) -> "HostProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        ticks = np.array(self._ticks, dtype=float).reshape(-1, 4)
        self._time, seconds, self._weight = ticks[:, 0], ticks[:, 2], ticks[:, 3]
        # the slowest phases measured about 2x; a burst slower than
        # MAX_RATIO was interrupted, not slowed, so it counts as MAX_RATIO
        self._ratio = np.minimum(seconds / REFERENCE_BURST_S, MAX_RATIO)

    def _watch(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # pins this thread only
        busy = busy_jiffies(cpu)
        while not self._stop.wait(PERIOD_S):
            now = busy_jiffies(cpu)
            self._ticks.append((time.perf_counter(), cpu, burst(), now - busy))
            busy = now

    def slowdown(self, start: float, end: float) -> float:
        """Busy-weighted slowdown of the host over ``perf_counter`` times
        ``start`` to ``end``; 1.0 without a burst in that interval."""
        inside = (self._time >= start) & (self._time <= end)
        if not inside.any():
            return 1.0
        weight = self._weight[inside]
        if weight.sum() == 0:
            return float(self._ratio[inside].mean())
        return float(np.average(self._ratio[inside], weights=weight))
