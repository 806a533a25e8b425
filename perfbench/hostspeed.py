"""The host's current speed, read from a fixed reference kernel.

A shared 2-vCPU host changes speed by up to 1.7x over seconds to tens of
minutes, and an operation's wall time moves with it. The benchmark
therefore times this kernel right before and right after every operation,
in the same process, and reports operation times scaled to the speed at
which the kernel takes ``REFERENCE_S``. The kernel has three equal parts,
because contention slows each kind of work by a different factor: a Python
loop over particle-sized lists, numpy membership tests of the size vscit's
fitness scoring makes, and scattered writes into a 1 MB mask, as the
oracle makes. It uses nothing from vscit, so a change to the
program never moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on a quiet host; scaled times read in seconds at that speed.
REFERENCE_S = 0.027
_CALLS = 3
_RNG = np.random.default_rng(0)
_IDS = _RNG.integers(0, 9000, size=(80, 560))
_TABLE = np.sort(_RNG.choice(9000, 4480, replace=False))
# Scattered in a few passes, so the kernel adds little to the peak memory a run reports.
_SCATTER = _RNG.integers(0, 1 << 20, size=1 << 18, dtype=np.int32)


def _python_part() -> None:
    positions = [float(i) for i in range(80)]
    velocities = [0.0] * 80
    for _ in range(1300):
        for i in range(80):
            velocities[i] = 0.7 * velocities[i] + 0.3 * (positions[i] - 1.0)
            positions[i] += velocities[i]


def _lookup_part() -> None:
    for _ in range(50):
        np.isin(_IDS, _TABLE).sum(axis=1)


def _scatter_part() -> None:
    mask = np.zeros(1 << 20, dtype=bool)
    for shift in range(6):
        mask[(_SCATTER + shift * 7919) & ((1 << 20) - 1)] = True
    mask.sum()


def _median_seconds(part) -> float:
    times = []
    for _ in range(_CALLS):
        start = time.perf_counter()
        part()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_seconds() -> float:
    """The kernel's time, each part the median of a few calls: the host's speed right now."""
    return sum(_median_seconds(part) for part in (_python_part, _lookup_part, _scatter_part))


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the kernel took ``reference``, at the reference speed."""
    return seconds * REFERENCE_S / reference
