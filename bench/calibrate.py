"""A fixed piece of work, timed between jobs to follow the host's speed.

On a shared host the speed of one core drifts by up to 1.8x over seconds,
and the two cores drift independently, so a job's wall time alone repeats
poorly: on one 2-core machine the same ``tri-cover`` pass took 7.9 s to
10.7 s within 100 s.  The kernel below exercises what the jobs spend
their time on (tuple arithmetic with set lookups, exact integer
determinants, a small numpy box scan).  Timed between jobs, the median of
the six timings around a job gives the speed the job ran at; rescaled to
``NOMINAL_S``, the same passes read 9.8 s to 10.5 s.  The kernel is part
of the benchmark, so it is the same on every commit being compared.
"""

from __future__ import annotations

import ctypes
import gc
import statistics
import time

import numpy as np

import intmath

NOMINAL_S = 0.015   # seconds the kernel takes at the nominal speed

_SIMPLEX = ((0, 0, 0), (3, 1, 0), (1, 3, 1), (1, 1, 4))
_NORMAL = np.array([1, 2, 3], dtype=np.int64)


def kernel() -> int:
    pts = [(i % 7 - 3, i % 5 - 2, i % 11 - 5) for i in range(300)]
    seen = set()
    hits = 0
    for p in pts:
        for q in pts[:20]:
            t = tuple(a - b for a, b in zip(p, q))
            if t in seen:
                hits += 1
            else:
                seen.add(t)
    hits += intmath.lattice_points_of_simplex(_SIMPLEX)
    axes = [np.arange(-12, 13, dtype=np.int64)] * 3
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=1)
    kept = grid[(grid @ _NORMAL) < 9]
    hits += len([tuple(int(c) for c in row) for row in kept[:2000]])
    return hits


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):   # not glibc: nothing to trim
        return lambda pad: 0


_trim = _malloc_trim()


def calibrate() -> float:
    """Seconds one kernel run takes now, from a freshly collected heap.

    Collecting, and handing freed heap back to the system, lets the next
    job start from the same collector state and resident size whatever ran
    before it, so job order moves neither collection pauses nor the memory
    peak from one job to another.
    """
    gc.collect()
    _trim(0)
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def normalized(seconds: float, around: list) -> float:
    """``seconds`` rescaled to the nominal speed, given the kernel timings
    taken around it."""
    return seconds * NOMINAL_S / statistics.median(around)
