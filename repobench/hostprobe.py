"""A fixed, program-independent probe of host speed, sampled during calls.

The shared host this benchmark was tuned on switches between a fast and
a slow speed (about 1.5x apart) on timescales from 0.1 s to over 20 s,
often inside a single timed call, so a probe run between calls misses
part of what the call saw. :class:`Sampler` instead runs a ~0.1 ms probe
kernel from a ``SIGALRM`` handler every ``INTERVAL_S`` of wall time
*while* the program runs, in the same thread. The kernel mixes what
the program spends its time on: interpreted Python, small complex-array
kernels, and a strided read that leaves the cache. It draws no random
numbers and never calls the program, so it cannot change the program's
results and a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Probe-kernel duration (seconds) that normalized timings are scaled back
# to: the median sampled during the workloads on the reference host
# (2 vCPU, Python 3.11, numpy 2.4).
# A constant, so normalized figures stay in seconds-at-reference-speed and
# do not drift with the run's own median probe.
REFERENCE_PROBE_S = 1.3e-4
# Wall time between probes: short enough that a call of a few tenths of
# a second gets several samples, long enough to cost about 1% of a pass.
INTERVAL_S = 0.025

_rng = np.random.default_rng(12345)
_X = _rng.standard_normal(512) + 1j * _rng.standard_normal(512)
_TAPS = _X[:24].copy()
_MEMORY = np.ones(1 << 17)


def probe_kernel() -> float:
    """One probe: its duration in seconds."""
    started = time.perf_counter()
    acc = 0
    for i in range(600):
        acc += (i * 7) % 13
    y = np.convolve(_X, _TAPS, mode="same")
    acc += int(abs(np.vdot(y, _X)) > 0)
    acc += int(_MEMORY[::8].sum() > 0)
    return time.perf_counter() - started


class Sampler:
    """Collects probe durations every ``INTERVAL_S`` while active.

    Use as a context manager around the timed calls; read ``samples``
    between calls (see :meth:`normalized`).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # The first run refills the caches the program just used; timing
        # only the second keeps the program's memory footprint out of
        # the probe, so the probe reads host speed alone.
        probe_kernel()
        self.samples.append(probe_kernel())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, raw_s: float, first: int) -> float:
        """*raw_s* in seconds at reference speed, from the samples taken
        since index *first*: work done in each sampling interval is
        proportional to the interval over that sample's duration."""
        window = self.samples[first:] or self.samples[-1:]
        if not window:
            window = [probe_kernel()]
        return raw_s * sum(REFERENCE_PROBE_S / s for s in window) / len(window)
