"""Correct job times for the host's speed at the moment they were measured.

On a shared host a core's speed switches between states many times a
second: on a 2-core VM a fixed pure-Python loop takes either about 0.41 ms or
about 0.70 ms, staying in each state for some tens of milliseconds (another
tenant on the sibling hardware thread, with no steal time recorded).  How
long a job spends in the slow state moves its time by a quarter and more, and
more passes per run do not average that out.  So while a job runs, an
interval timer interrupts it every ``PERIOD_S`` and times a fixed pure-Python
reference loop in the same thread, on the same core.  A sample lasting ``d``
means the core ran at ``NOMINAL_S / d`` of nominal speed at that moment; the
samples are evenly spread in time, so their mean is the job's mean speed, and
the job's time multiplied by it reads as the seconds the job would have taken
at nominal speed.  The curvlab code measured here runs in pure Python (no
numba), so it slows and speeds with that loop.

The time spent in the samples is taken out of the job's wall and CPU time
before scaling.  Samples are taken only around untraced jobs.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02
NOMINAL_S = 0.0005  # the reference loop at nominal speed
LEAD_SAMPLES = 5  # taken just before each job, so short jobs have samples too


def _reference_loop() -> None:
    acc = 0
    table = {}
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 63] = table.get(acc & 63, 0) + 1


class SpeedSampler:
    """Time the reference loop before and during one job at a time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the timer handler during the job
        self._previous = None

    def _sample(self) -> None:
        t0 = perf_counter()
        _reference_loop()
        self.samples.append(perf_counter() - t0)

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        self._sample()
        self.spent += perf_counter() - t0

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        for _ in range(LEAD_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self) -> float:
        """Mean speed, as a share of nominal, while the last job ran."""
        return statistics.fmean(NOMINAL_S / d for d in self.samples)
