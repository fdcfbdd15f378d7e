"""Host speed, sampled through a run, so that its times can be given at a
fixed nominal speed.

The benchmark runs on shared hosts whose speed drifts. On a 2-vCPU VM the
same fixed loop took 0.26-0.54 s within one minute, and a slow spell lasts
tens of seconds, so it does not average out inside a 35 s pass: over ten
runs of the same code, the middle half of the pass times spread by a
quarter of their median. A sample times a fixed reference unit made of the
two kinds of work patchpred does, a pure-Python loop and small numpy
operations; its duration over NOMINAL_S is the host's slowdown at that
moment. An interval timer takes a sample every SAMPLE_EVERY_S of wall time,
inside long calls into patchpred too: the signal handler runs between two
bytecodes of the main thread. A time measured over an interval, divided by
the harmonic mean slowdown of the samples taken in it and the NEAR nearest
on each side, is its length at the nominal speed. Time spent sampling is
left out of every measured interval (`mark` and `since`).
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Median duration of one reference unit on the development host (Intel Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread). Only its constancy
# matters: it fixes the speed that nominal seconds refer to.
NOMINAL_S = 0.025
# Wall time between two samples of the interval timer.
SAMPLE_EVERY_S = 0.5
# Samples on each side of an interval that also count towards its slowdown.
NEAR = 3

_MATRIX = np.random.default_rng(0).random((200, 64))


def reference_unit() -> float:
    """A fixed amount of mixed interpreter and numpy work."""
    acc = 0
    for i in range(180_000):
        acc += i * i % 7
    total = float(acc)
    for _ in range(1_500):
        total += float(np.sort(_MATRIX[:, 3]).sum()) + float((_MATRIX @ _MATRIX[0]).max())
    return total


class HostSpeed:
    """Samples of the host's slowdown, taken through the run."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples: list[tuple[float, float]] = []  # (midpoint, slowdown)
        self.spent_s = 0.0
        self._busy = False
        self._previous_handler = None

    def __enter__(self):
        if self.enabled:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def _on_alarm(self, _signum, _frame) -> None:
        if not self._busy:
            self.sample()

    def sample(self, count: int = 1) -> None:
        if not self.enabled:
            return
        self._busy = True
        try:
            for _ in range(count):
                start = time.perf_counter()
                reference_unit()
                end = time.perf_counter()
                self.samples.append(((start + end) / 2, (end - start) / NOMINAL_S))
                self.spent_s += end - start
        finally:
            self._busy = False

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent_s

    def since(self, mark: tuple[float, float]) -> float:
        """Seconds since `mark`, less the time spent sampling in between."""
        start, spent = mark
        return time.perf_counter() - start - (self.spent_s - spent)

    def slowdown(self, start: float, end: float) -> float:
        """Harmonic mean slowdown over [start, end]: the samples inside it and
        the NEAR nearest on each side. Wall time is the integral of the
        slowdown, so the harmonic mean turns it into nominal time. 1.0 when
        nothing was sampled."""
        before = [s for t, s in self.samples if t < start][-NEAR:]
        inside = [s for t, s in self.samples if start <= t <= end]
        after = [s for t, s in self.samples if t > end][:NEAR]
        near = before + inside + after
        return len(near) / sum(1.0 / s for s in near) if near else 1.0
