"""Machine-speed calibration for timings taken on a shared machine.

On a small shared machine the speed available to one thread drifts by tens
of percent over seconds (frequency changes, neighbours on the same core), so
two runs of the same code differ by more than the effects worth measuring.
The benchmark therefore times a fixed kernel of its own work
between operations, and reports each operation's time scaled by
``REFERENCE_S / kernel time`` measured around it: times are given at the
speed at which the kernel takes ``REFERENCE_S``.  The kernel mixes what the
library spends its time on (interpreted arithmetic and dict updates, small
LAPACK calls, JSON encoding) and never calls the library, so a change to the
program moves the scaled times while a change in machine speed does not.
Raw times stay available next to the scaled ones.
"""

import json
import statistics
import time

import numpy as np

# Median kernel time on the reference machine: 2-core x86_64, Python 3.11,
# numpy 2.4 with OpenBLAS 0.3.31 on one thread.
REFERENCE_S = 1.5e-3
# Kernel runs per calibration; the calibration is their median.
REPEATS = 5
# Calibrate before an operation when the last calibration is this old.
EVERY_S = 0.1

_M = np.random.default_rng(0).standard_normal((8, 8))
_M = _M + _M.T


def _kernel() -> float:
    s = 0.0
    d = {}
    for i in range(3000):
        s += (i * 0.5) ** 0.5
        d[i % 97] = s
    for _ in range(60):
        np.linalg.eigvalsh(_M)
        json.dumps([float(x) for x in _M[0]])
    return s


def sample() -> float:
    """Seconds the kernel takes now (median of ``REPEATS`` runs)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Reference seconds per measured second between two calibrations."""
    return REFERENCE_S / ((before + after) / 2.0)
