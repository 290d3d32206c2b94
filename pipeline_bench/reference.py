"""Machine-speed reference for the end-to-end timings.

The host this benchmark was written on runs a single-threaded process in two
speed regimes about 1.8x apart, switching every second to every few minutes
(the other vCPU idle, steal time near zero). A median over a 30 s run
therefore moves by tens of percent from run to run. Timings are expressed in
reference units instead: a piece of measured work is divided by the time of
one unit of a fixed kernel measured while, or right around, that work ran.

A measurement is the median of three units. Short work is divided by the mean
of the latest measurement before it and one taken right after it. Long work
would straddle changes of regime, so a SIGALRM handler also measures every
TICK_S seconds, between bytecodes of the main thread, and work that spans at
least MIN_TICKS such measurements is divided by their mean. Nothing in the
program is wrapped, and the time spent measuring is subtracted from the work.
The kernel does not import metalora, so a change to the program moves the
ratio and a change of regime does not. It is shaped like the program's hot
path: per-item small matmuls through a low-rank chain, a tanh, its backward
and an AdamW-style update, dispatched from Python.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

ITEMS_PER_UNIT = 40
UNITS_PER_MEASURE = 3
TICK_S = 0.5
MIN_TICKS = 4
# seconds of one reference unit on a nominal machine (the host below runs it
# in 1.3-2.7 ms); a figure in reference units times this reads as seconds
NOMINAL_UNIT_S = 0.002


@dataclass(frozen=True)
class Mark:
    t: float
    measures: int
    measure_s: float
    before: float


class ReferenceClock:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self._rng = rng
        self._w1 = rng.normal(size=(64, 44))
        self._w2 = rng.normal(size=(32, 64))
        self._down = rng.normal(size=(16, 44))
        self._mid = rng.normal(size=(1, 16))
        self._up = rng.normal(size=(64, 1))
        self._m = np.zeros((64, 1))
        self._v = np.zeros((64, 1))
        self.measures: list[float] = []  # seconds per unit, in order
        self._ticks: list[int] = []  # indices into measures taken by the timer
        self._measure_s = 0.0  # total seconds spent measuring

    def _unit(self) -> None:
        rng = self._rng
        for t in range(ITEMS_PER_UNIT):
            phase = np.arange(1, 5) * t / ITEMS_PER_UNIT
            x = np.concatenate([rng.normal(size=32), np.sin(phase), np.cos(phase),
                                np.zeros(4)]).reshape(-1, 1)
            mid = self._mid @ (self._down @ x)
            a = np.tanh(self._w1 @ x + self._up @ mid)
            out = self._w2 @ a
            g = (self._w2.T @ (2.0 * out / out.size)) * (1.0 - a * a)
            g_up = g @ mid.T
            self._m *= 0.9
            self._m += 0.1 * g_up
            self._v *= 0.999
            self._v += 0.001 * g_up * g_up
            self._up -= 1e-3 * self._m / (np.sqrt(self._v) + 1e-8)

    def _measure(self) -> float:
        # a tick arriving meanwhile waits until this measurement is recorded
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = time.perf_counter()
            times = []
            for _ in range(UNITS_PER_MEASURE):
                t = time.perf_counter()
                self._unit()
                times.append(time.perf_counter() - t)
            self.measures.append(statistics.median(times))
            self._measure_s += time.perf_counter() - t0
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return self.measures[-1]

    def _on_tick(self, _signum, _frame) -> None:
        self._ticks.append(len(self.measures))
        self._measure()

    def start(self, ticking: bool) -> None:
        """Measure once; with ``ticking``, also every TICK_S seconds."""
        self._measure()
        if ticking:
            signal.signal(signal.SIGALRM, self._on_tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), len(self.measures), self._measure_s,
                    self.measures[-1])

    def since(self, mark: Mark) -> tuple[float, float]:
        """(seconds of work since ``mark`` without the measuring, the same in
        reference units)."""
        seconds = time.perf_counter() - mark.t - (self._measure_s - mark.measure_s)
        during = [self.measures[i] for i in self._ticks if i >= mark.measures]
        if len(during) >= MIN_TICKS:
            unit = sum(during) / len(during)
        else:
            unit = (mark.before + self._measure()) / 2.0
        return seconds, seconds / unit
