"""Measuring the program, not the machine it shares.

On the shared two-vCPU machine this benchmark was written on, wall time
mixes in two things that have nothing to do with the package.  Another
tenant may run instead of us (steal: up to 60% of the busy time of a run),
and the CPUs run the same pure-Python call up to twice as fast or slow from
one minute to the next.  Medians over many rounds cannot remove drift that
lasts longer than a run.  So a time is CPU seconds (:func:`cpu_clock`: this
thread plus waited-for children), which leave out stolen time, scaled by a
frozen gauge of machine speed that uses nothing from the package, timed at
the moment of the measurement (see :class:`Calibration`):

    nominal = CPU seconds * nominal gauge seconds / gauge CPU seconds then

There are two gauges, one per kind of measured work:

* Work in this process (an op, a microbenchmark batch, one ``cli.main``
  call) is scaled by the kernel below, a pass of pure Python doing the
  workloads' kinds of work, timed every CALIBRATE_EVERY_S of CPU time.
* A child process (set-up, a ``cli`` op, the start-up figures) is scaled by
  REFERENCE_STARTUP, a fresh interpreter that imports numpy and some of the
  standard library, run every REFERENCE_EVERY_S of CPU time.  Such a
  process is mostly interpreter start and imports.  Over sixteen set-up
  probes its drift followed this reference (correlation 0.76) and not the
  kernel (0.04).

A change to the package moves the measured time but not the gauge, so it
shows in full; a slower machine moves both and cancels.  Unscaled figures
stay in each run's detail line.

This module uses the standard library only, so run.py can import it.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import os
import resource
import statistics
import subprocess
import sys
import time

NOMINAL_KERNEL_S = 0.004  # the kernel on the machine above, at its quieter times
KERNEL_TERMS = 2000
CALIBRATE_EVERY_S = 0.25
SMOOTH_S = 1.0
NOMINAL_REFERENCE_S = 0.2  # REFERENCE_STARTUP on the machine above, one BLAS thread
REFERENCE_EVERY_S = 0.5  # less than a cli op or a set-up: one mark between any two
REFERENCE_TIMEOUT_S = 30
REFERENCE_STARTUP = (
    "import time, numpy, argparse, dataclasses, decimal, email.parser, fractions, json, xml.dom.minidom; "
    "print(repr(time.process_time()))"
)


def cpu_clock() -> float:
    """CPU seconds of this thread plus those of every waited-for child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


class _Coeff:
    """The shape of a QSqrt: a small object with two int slots."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


_WORDS = [w for length in range(4) for w in itertools.product((1, 2), repeat=length)][:6]
_PAIRS = {(mu, nu): _Coeff(1 + len(mu), len(nu)) for mu in _WORDS for nu in _WORDS}


def _kernel() -> int:
    """One pass of each kind of work the workloads do, written here so that
    no change to the package can move it: a path-matching product of a
    36-term map with itself (small working set, like sf_sweep), an
    expansion of words by every suffix into a dict (like canonical_form),
    and building and walking a 2,000-entry map of coefficient objects (like
    the sweeps).  A kernel of one kind alone followed machine-speed drift
    up to a third more or less than the workloads of another kind."""
    product = {}
    for (mu, nu), ca in _PAIRS.items():
        ln = len(nu)
        for (al, be), cb in _PAIRS.items():
            la = len(al)
            if ln >= la:
                if nu[:la] != al:
                    continue
                key = (mu, be + nu[la:])
            else:
                if al[:ln] != nu:
                    continue
                key = (mu + al[ln:], be)
            c = _Coeff(ca.a * cb.a + 2 * ca.b * cb.b, ca.a * cb.b + ca.b * cb.a)
            v = product.get(key)
            product[key] = c if v is None else _Coeff(v.a + c.a, v.b + c.b)
    expanded = {}
    for sfx in itertools.product((1, 2), repeat=10):
        key = ((1, 2) + sfx, (2,) + sfx)
        expanded[key] = expanded.get(key, 0) + 1
    table = {}
    for i in range(KERNEL_TERMS):
        table[((i % 7, i % 11, i % 13), (i % 17,))] = _Coeff(i, i & 3)
    total = 0
    for (mu, nu), c in table.items():
        word = mu + nu
        total += c.a * len(word[1:]) + c.b
    return len(product) + len(expanded) + total


def kernel_seconds() -> float:
    """CPU seconds of one kernel pass, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        _kernel()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def reference_startup_seconds() -> float:
    """CPU seconds of REFERENCE_STARTUP in a fresh interpreter with one
    BLAS/OpenMP thread, as the benchmark runs its workers."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCE_STARTUP],
        capture_output=True, text=True, env=env, timeout=REFERENCE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout)


class Calibration:
    """Gauge timings at points in CPU time.  Speed drifts within a run, so
    a measurement is scaled by the gauge at its own moment: interpolated
    between the marks around it, each mark first replaced by the median of
    the marks within SMOOTH_S CPU seconds of it, because one timing of a
    gauge is noisier than the drift.  By default the gauge is the kernel;
    :meth:`startup` makes one for child processes."""

    def __init__(self, gauge=kernel_seconds, nominal_s: float = NOMINAL_KERNEL_S, every_s: float = CALIBRATE_EVERY_S):
        self.gauge, self.nominal_s, self.every_s = gauge, nominal_s, every_s
        self.times: list[float] = []
        self.readings: list[float] = []
        self._smooth: list[float] = []

    @classmethod
    def startup(cls) -> "Calibration":
        return cls(reference_startup_seconds, NOMINAL_REFERENCE_S, REFERENCE_EVERY_S)

    def mark(self) -> None:
        t0 = cpu_clock()
        reading = self.gauge()
        self.times.append((t0 + cpu_clock()) / 2)
        self.readings.append(reading)

    def mark_if_due(self) -> None:
        if not self.times or cpu_clock() - self.times[-1] >= self.every_s:
            self.mark()

    def gauge_at(self, t: float) -> float:
        """Smoothed gauge seconds at CPU time ``t``."""
        times, k = self.times, self.readings
        if len(self._smooth) != len(k):
            self._smooth = [
                statistics.median(k[bisect.bisect_left(times, m - SMOOTH_S) : bisect.bisect_right(times, m + SMOOTH_S)])
                for m in times
            ]
        smooth = self._smooth
        i = bisect.bisect_left(times, t)
        if i == 0:
            return smooth[0]
        if i == len(times):
            return smooth[-1]
        w = (t - times[i - 1]) / (times[i] - times[i - 1])
        return smooth[i - 1] + w * (smooth[i] - smooth[i - 1])

    def nominal(self, start: float, seconds: float) -> float:
        """Nominal length of a measurement that started at CPU time ``start``."""
        return seconds * self.nominal_s / self.gauge_at(start + seconds / 2)

    def median_nominal(self, samples: list[tuple[float, float]]) -> float:
        """Median nominal length of ``(start, seconds)`` samples."""
        return statistics.median(self.nominal(start, seconds) for start, seconds in samples)

    def factor(self) -> float:
        """Nominal seconds per CPU second at the run's median gauge time.
        A diagnostic for the detail line; nothing is scaled by it."""
        return self.nominal_s / statistics.median(self.readings)
