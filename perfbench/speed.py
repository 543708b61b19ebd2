"""Host-speed probe that steadies the benchmark's times.

On a shared host the same pure-Python work can run 1.5x slower for seconds
at a time, and CPU time slows with wall time, so repeating a pass cannot
average the drift away.  The probe is a few milliseconds of fixed stdlib work
of the same kind as the program's (tuples, dicts, integers, fractions), none
of it from ``plumblat``.  Its rate, ``PROBE_NOMINAL_S`` over its duration, is
the host's speed relative to the host where the benchmark was defined.

A measured interval is rescaled to that host: ``elapsed * mean(rates)``,
with the rates sampled evenly in wall time across the interval.  For long
intervals :class:`Sampler` takes them from a SIGALRM handler every
``INTERVAL_S``.  :func:`clock_ns` is a clock that stops while a probe runs,
so the probes' own time is left out of ``elapsed`` and of every span timed
with it.  A change to the program moves ``elapsed`` and not the probe, so it
shows in full; a slow or fast spell of the host moves both, and cancels.

The probe runs with the garbage collector off, so its time does not depend
on the size of the program's heap.

Set-up is mostly starting an interpreter and loading modules, which the
probe above does not track, so set-up times are rescaled by
:func:`startup_rate`, the speed of starting a reference interpreter.
"""

from __future__ import annotations

import gc
import signal
import subprocess
import sys
import time
from fractions import Fraction
from statistics import fmean

# Median probe time on the 2-core host where the benchmark was defined.
PROBE_NOMINAL_S = 0.0044
INTERVAL_S = 0.1
# Median time of one reference interpreter start, same host.
STARTUP_NOMINAL_S = 0.05
# The standard modules the benchmark's child loads, and no ``plumblat``.
_STARTUP = ("import argparse, contextlib, fractions, json, pathlib, signal, "
            "statistics, tracemalloc")


# The probe's table (about 0.6 MB) is built once, at import, and a probe
# allocates nothing that outlives a loop step, so a probe that fires at the
# program's memory peak cannot raise its peak RSS.
_TABLE = {(i % 97, i % 89, i % 83): 0 for i in range(5_000)}


def _reference_work() -> int:
    total = 0
    for i in range(5_000):
        key = (i % 97, i % 89, i % 83)
        _TABLE[key] = (_TABLE[key] + i) % 65_521
        total += sum(x * x for x in key) % 7
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 13, i)
    return total + acc.denominator % 7


# Total nanoseconds spent in probes so far in this process.
_probe_ns = 0


def probe() -> float:
    """Duration of one run of the reference work, in seconds."""
    global _probe_ns
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    _reference_work()
    took = time.perf_counter_ns() - start
    if collecting:
        gc.enable()
    _probe_ns += took
    return took / 1e9


def clock_ns() -> int:
    """``perf_counter_ns`` less the time spent in probes."""
    while True:
        spent = _probe_ns
        now = time.perf_counter_ns()
        # a probe that ran between the two reads would be counted in ``now``
        if _probe_ns == spent:
            return now - spent


def rate(samples: int = 5) -> float:
    """Host speed now: mean rate of a few back-to-back probes."""
    return fmean(PROBE_NOMINAL_S / probe() for _ in range(samples))


def startup_rate() -> float:
    """Host speed at starting a process: rate of one reference interpreter start."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _STARTUP], check=True)
    return STARTUP_NOMINAL_S / (time.perf_counter() - start)


class Sampler:
    """Times a block and samples the host speed every ``INTERVAL_S`` within it.

    After the block, ``elapsed`` is its :func:`clock_ns` time in seconds and
    ``normalized`` that time rescaled by the mean sampled rate.  One
    probe runs just before the block and one just after, so even a short
    block has two samples.
    """

    def __init__(self) -> None:
        self.rates: list[float] = []
        self.elapsed = 0.0
        self._start = 0
        self._previous = None

    def _sample(self, *_signal) -> None:
        self.rates.append(PROBE_NOMINAL_S / probe())

    def __enter__(self) -> "Sampler":
        self.rates.append(rate(1))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = clock_ns()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = (clock_ns() - self._start) / 1e9
        signal.signal(signal.SIGALRM, self._previous)
        self.rates.append(rate(1))

    @property
    def normalized(self) -> float:
        return self.elapsed * fmean(self.rates)
