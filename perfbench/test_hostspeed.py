"""Reference-speed scaling turns a slowed host's times back into reference times.

Run from the repository root: python3 -m pytest -q perfbench/test_hostspeed.py
"""

from __future__ import annotations

import numpy as np

import hostspeed
from hostspeed import HostSpeed
from run import Probe


QUIET_S = hostspeed.kernel("small")[1]


def _speed(slowdown_by_second: list[float], per_second: int = 100) -> HostSpeed:
    """Small-kernel samples at 100 a second, each second's all slowed by the given factor."""
    speed = HostSpeed("small")
    for second, slowdown in enumerate(slowdown_by_second):
        for i in range(per_second):
            speed.at.append(second + i / per_second)
            speed.took.append(slowdown * QUIET_S)
    return speed


def test_factor_follows_the_kernel():
    speed = _speed([1.0, 1.7, 1.0])
    assert np.allclose(speed.factor([0.5, 1.5, 2.5]), [1.0, 1.7, 1.0])
    # a call that took 1.7x as long while the kernel did too reads as a reference-speed call
    assert np.allclose(speed.scaled([1.7e-3, 1e-3], [1.5, 2.5]), [1e-3, 1e-3])


def test_rolling_median_ignores_a_lone_slow_sample():
    speed = _speed([1.0])
    speed.took[50] = 10 * QUIET_S
    assert np.allclose(speed.factor([0.5]), 1.0)


def test_scaled_seconds_leaves_out_excluded_time():
    probe = Probe(1, _speed([1.0, 2.0]))
    # 0.4 s timed at reference speed, then 0.5 s timed at half speed; 0.1 s of checks in each
    for now, excluded in ((0.0, 0.0), (0.5, 0.1), (1.1, 0.2)):
        probe.excluded_s = excluded
        probe.mark(now)
    assert np.isclose(probe.scaled_seconds(), 0.4 + 0.5 / 2)


def test_kernels_are_fixed_work():
    assert hostspeed.small() == hostspeed.small()
    large = hostspeed.Large()
    assert large() == large()
