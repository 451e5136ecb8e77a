"""A gauge of how fast the machine runs while a workload runs.

The benchmark runs on a shared 2-vCPU guest whose speed moves by 20% and
more within seconds, as other tenants' load changes.  A short fixed job,
run every ``INTERVAL_S`` of wall time from a ``SIGALRM`` handler while the
rounds run, slows down with it.  Dividing a round's time by the mean time
of the jobs that ran inside it keeps what the program does and drops most
of what the machine does; the job's own time is taken out of the round's.

The job does no ``awsde`` work: exact ``Fraction`` sums (interpreter and
``fractions`` work, like the tree solver's) and numpy ufuncs on 128-element
arrays (per-call overhead, like the SDE steppers' on a block of paths).  On
the development machine those two tracked the workloads' slow phases best
of several candidates; passes over large arrays and big-dict lookups
tracked them worse (see README.md).  A change to the program cannot
move it.  The handler runs between two bytecodes of the main thread, so it
lands inside the program's Python code and numpy calls alike.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.05
# The job's time, in seconds, at the speed the scaled metrics are quoted at:
# about its median on the development machine (see README.md).  A fixed
# constant, so scaled metrics compare across runs.
REFERENCE_S = 0.0025

_SMALL = np.random.default_rng(0).standard_normal(128)


def reference_job() -> None:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 5 + 3)
    x = _SMALL
    for _ in range(150):
        x = np.where(x >= 0.0, x * 0.5, x + 0.1) + 0.01


class Gauge:
    """Runs ``reference_job`` every ``INTERVAL_S`` inside a ``with`` block.

    ``samples`` holds ``(start, wall_s, cpu_s)`` of every job, in order.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started, cpu = time.perf_counter(), time.process_time()
        reference_job()
        self.samples.append((started, time.perf_counter() - started, time.process_time() - cpu))

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU seconds of the span ``[start, start + wall)`` at the reference speed.

        The jobs that ran inside the span are taken out of its times, and
        their mean time sets the speed.  A span that no job ran inside, as
        in a traced run, keeps its raw times.
        """
        starts = [s for s, _, _ in self.samples]
        inside = self.samples[bisect.bisect_left(starts, start):
                              bisect.bisect_left(starts, start + wall)]
        if not inside:
            return wall, cpu
        factor = REFERENCE_S / statistics.fmean(w for _, w, _ in inside)
        return ((wall - sum(w for _, w, _ in inside)) * factor,
                (cpu - sum(c for _, _, c in inside)) * factor)
