"""Host-speed calibration for timings on a shared machine.

The hosts this benchmark runs on change speed by a quarter or more over
tens of seconds, for the same process on the same input, because other
tenants share the cores.  A run therefore times a fixed reference loop,
half interpreter work and half numpy, which does not touch levellab,
between items, and scales each timed interval by ``NOMINAL_S / reference
time`` measured around it.  A calibrated second is a second on this host
in a phase where the reference loop takes NOMINAL_S.  Raw times are
printed alongside.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.005
EVERY_S = 0.2  # least time between two probes during a run
_P = 2147483647
_MATRIX = np.arange(300 * 200, dtype=np.int64).reshape(300, 200) * 7919 % _P


def reference() -> None:
    """Dict updates, then elimination-style int64 outer-product updates
    whose temporaries are large enough to be mapped fresh by malloc."""
    acc: dict[tuple[int, int, int], int] = {}
    for i in range(7500):
        key = (i % 7, i % 11, i % 13)
        acc[key] = (acc.get(key, 0) + i * 2654435761) % _P
    a = _MATRIX
    for _ in range(6):
        a = (a - np.outer(a[:, 1], a[1])) % _P


def probe() -> float:
    """Best of three reference timings, which drops a stray interrupt."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(before: float, after: float) -> float:
    """Scale for an interval bracketed by two probes."""
    return NOMINAL_S / ((before + after) / 2)
