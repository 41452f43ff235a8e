"""A fixed piece of work, independent of elicitkit, that measures the host's current speed.

The host the benchmark was built on shares its two cores with other
tenants. Its speed switches between levels about 40 % apart, in episodes
of seconds to minutes, so wall-clock times of identical runs differ by a
third. Timing this kernel between operations measures the speed level of
the moment. ``run.py`` scales end-to-end times by
``REFERENCE_S / kernel time``, which reports them at the speed where the
kernel takes ``REFERENCE_S``.

The kernel mixes the three kinds of work the program does: HiGHS solves
through ``scipy.optimize.linprog``, small numpy products, and
interpreter-bound dict and list work. It touches no elicitkit code, so a
change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

#: Kernel time that defines the reference speed (about its median on the
#: 2-core host the bounds were set on).
REFERENCE_S = 0.013

_RNG = np.random.default_rng(0)
_LP_A = _RNG.uniform(-1.0, 1.0, size=(12, 9))
_LP_B = np.ones(12)
_LP_C = -np.ones(9)
_MATRIX = _RNG.uniform(size=(8, 8))


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    start = time.perf_counter()
    for _ in range(2):
        linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=[(0.0, 1.0)] * 9, method="highs")
    m = _MATRIX.copy()
    for _ in range(500):
        m = m @ m.T
        m /= m.max()
    table: dict[int, int] = {}
    for i in range(15000):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - start
