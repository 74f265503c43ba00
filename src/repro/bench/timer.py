"""Host-speed calibration.

``calibrate`` times a fixed pure-Python workload and returns its best-of-N
seconds.  The repository benchmark (``perfbench/``) divides by it to scale
``sim_kips`` to a reference host, so results from different hosts compare.
"""

from __future__ import annotations

import time

#: Iterations of the calibration kernel (fixed forever so the normalised
#: metric stays comparable across history).
_CALIBRATION_ITERATIONS = 200_000


def _calibration_kernel() -> int:
    """A fixed integer-arithmetic spin representative of interpreter speed."""
    acc = 0
    for index in range(_CALIBRATION_ITERATIONS):
        acc = (acc * 31 + index) % 1_000_003
    return acc


def calibrate(repeats: int = 5) -> float:
    """Seconds for the fixed calibration kernel (best of *repeats*)."""
    if repeats < 1:
        raise ValueError("repeats must be positive")
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - started)
    return best
