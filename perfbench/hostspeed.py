"""Host-speed probe: fixed work whose time tracks how fast the host runs now.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, in CPU time as much as in wall time.  run.py
times ``probe``, while the worker waits, before the first timed iteration
and after each one.  Every time a run reports is scaled by
``spec.PROBE_REF_S`` over the median of the run's probes, which gives it in
seconds on the reference box at one fixed speed.

The probe does not touch tdxray, so a change to the program moves the
scaled times by the same factor as the unscaled ones; only the host's
drift cancels.  It runs in run.py's process, so its arrays are not in the
worker's memory.  It mixes three kinds of work that tdxray does and that
slow differently as the host gets busy: a Python loop, a copy of arrays
larger than the per-core caches, and small-array numpy steps.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

import numpy as np

#: timings of each kernel per probe; the probe takes the median of each
REPS = 5


@functools.cache
def _arrays():
    """64 MB each for the copy, allocated and touched once."""
    return (np.ones(8_000_000), np.ones(8_000_000),
            np.random.default_rng(0).standard_normal((97, 97)))


def _python_loop(arrays) -> None:
    x = 0.0
    for i in range(600_000):
        x += (i % 7) * 0.5


def _copy(arrays) -> None:
    src, dst, _ = arrays
    for _ in range(3):
        np.copyto(dst, src)


def _stencil(arrays) -> None:
    u0 = u1 = arrays[2]
    for _ in range(300):
        lap = np.zeros_like(u1)
        lap[1:-1, 1:-1] = (u1[2:, 1:-1] + u1[:-2, 1:-1] + u1[1:-1, 2:]
                           + u1[1:-1, :-2] - 4.0 * u1[1:-1, 1:-1])
        u0, u1 = u1, 2.0 * u1 - u0 + 0.1 * lap


def probe() -> float:
    """Seconds: geometric mean over the kernels of each one's median time."""
    arrays = _arrays()
    medians = []
    for kernel in (_python_loop, _copy, _stencil):
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel(arrays)
            times.append(time.perf_counter() - t0)
        medians.append(statistics.median(times))
    return math.prod(medians) ** (1.0 / len(medians))
