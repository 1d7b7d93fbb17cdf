"""The host's speed through a run, read from a fixed reference kernel.

The machine the benchmark runs on is shared: for seconds to minutes at a
time the same code runs up to 1.7x slower, and a run's median call time
lands in whichever mode held most of it.  ``HostSpeed`` times a kernel of
its own every ``PERIOD_S`` of the run, right after one untimed run of the
same kernel so that the cache state the simulator left does not count, and
turns each wall time into reference-speed time: the wall time divided by
the kernel's median over the samples within ``WINDOW_S`` of it, times the
kernel's time on a quiet host.  The kernel does the kind of work the
workload's time goes into: tiny-array numpy calls and Python arithmetic on
desk (``small``), large-array math on the 128-region scenario (``large``).
It does not touch the simulator, so a change to the simulator moves the
scaled times as much as the wall times.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable

import numpy as np

clock = time.perf_counter

# the kernel is sampled at most once per PERIOD_S of the run: every 10 ms
# on desk, once per step (~55 ms) on the 128-region scenario
PERIOD_S = 0.01
# the speed at a moment is the median of the samples within WINDOW_S of it
WINDOW_S = 0.15
# the kernels' medians on this machine (README, "Machine and BLAS") when the
# host is quiet; for the large one, while the small one reads under 0.28 ms
QUIET_SMALL_S = 0.26e-3
QUIET_LARGE_S = 4.3e-3

_A = np.linspace(0.1, 2.0, 48).reshape(8, 6)
_B = np.linspace(0.5, 1.5, 24).reshape(6, 4)


def small() -> float:
    """Fixed work: 20 rounds of tiny matmul, log2, reductions and a Python sum."""
    acc = 0.0
    for k in range(20):
        x = _A @ _B
        y = np.log2(1.0 + x * (k + 1))
        z = y.sum(axis=0)
        i = int(np.argmax(z))
        w = np.where(x > z.mean(), x, 0.0)
        acc += float(w[:, i].sum()) + sum(v * v for v in z.tolist())
    return acc


class Large:
    """Fixed work shaped like a 128-region step: a path-loss pass over a
    384 x 1280 transmitter-user array.  No BLAS call, so no BLAS thread
    wakes for it and the process's peak memory does not depend on one."""

    def __init__(self):
        self.d = np.linspace(50.0, 5000.0, 384 * 1280).reshape(384, 1280)
        self.g = np.empty_like(self.d)

    def __call__(self) -> float:
        np.log10(self.d, out=self.g)
        self.g *= -2.0
        self.g -= 3.0
        np.power(10.0, self.g, out=self.g)
        return float(self.g.sum(axis=0).max())


def kernel(kind: str) -> tuple[Callable[[], float], float]:
    """The kernel for a kind of work, and its median wall time on a quiet host."""
    if kind == "small":
        return small, QUIET_SMALL_S
    return Large(), QUIET_LARGE_S


class HostSpeed:
    def __init__(self, kind: str):
        self.work, self.quiet_s = kernel(kind)
        self.at = array("d")  # clock at each timed kernel run
        self.took = array("d")
        self.last = float("-inf")

    def sample(self) -> float:
        """Time one kernel run; returns the wall time spent, warm-up included."""
        start = clock()
        self.work()
        t0 = clock()
        self.work()
        t1 = clock()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.last = t1
        return t1 - start

    def maybe_sample(self) -> float:
        """Sample if ``PERIOD_S`` has passed since the last one; returns the time spent."""
        if clock() - self.last < PERIOD_S:
            return 0.0
        return self.sample()

    def factor(self, stamps) -> np.ndarray:
        """Slowdown against the reference at each clock stamp (1.0 = reference speed)."""
        at, took = np.asarray(self.at), np.asarray(self.took)
        lo = np.searchsorted(at, at - WINDOW_S)
        hi = np.searchsorted(at, at + WINDOW_S, side="right")
        around = np.array([np.median(took[a:b]) for a, b in zip(lo, hi)])
        idx = np.clip(np.searchsorted(at, stamps), 0, len(took) - 1)
        return around[idx] / self.quiet_s

    def scaled(self, durations, stamps) -> np.ndarray:
        """Durations ending at ``stamps``, in reference-speed seconds."""
        return np.asarray(durations) / self.factor(stamps)
