"""A fixed unit of work that measures how fast the host runs right now.

The benchmark's hosts change speed by up to a factor of two for tens of
seconds at a time, in both pure-Python code and Qhull, with the process's
CPU time following its wall time.  A run therefore times this probe
alongside every pass and scales the pass's times to the probe's
reference speed.  The probe uses only the interpreter, numpy and scipy,
never quermass, so a change to the program cannot move it.
"""
from __future__ import annotations

import resource
import time

import numpy as np
from scipy.spatial import ConvexHull

# Wall time of one probe on the reference machine at its faster speed;
# the unit in which normalised times are expressed.
REFERENCE_S = 0.15

_GEN = np.random.Generator(np.random.Philox(7))
_CLOUDS = [_GEN.standard_normal((24, d)) for d in (2, 3, 4)]
_MATS = _GEN.standard_normal((2000, 6, 6))


def _work() -> float:
    acc = 0.0
    # pure Python: the loops of the scenario runner and the checks
    for i in range(500_000):
        acc += (i * 0.5) % 3.0
    # small numpy operations: bases, projections, sampling
    for m in _MATS:
        q, _ = np.linalg.qr(m)
        acc += float(np.abs(q @ m).sum())
    # Qhull on small point sets: the hulls every layer builds
    for _ in range(300):
        for pts in _CLOUDS:
            acc += ConvexHull(pts).volume
    return acc


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of one fixed unit of work."""
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    _work()
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    return t1 - t0, (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
