"""Host speed calibration for a shared, noisy machine.

On a shared VM the effective CPU speed drifts by +-20% within seconds,
and the benchmark's own work slows down with it.  A fixed calibration
kernel, run interleaved with the work in the same process, slows down by
nearly the same factor (on a 2-core Xeon VM its time per ~2 s window
correlated at 0.98 with fixed sweep batches).  The benchmark divides wall
times by ``speed = measured unit time / REF_UNIT_S``, which gives the time
the work would have taken on a host running the kernel at reference speed.

The kernel mimics the package's mix: a numpy scan plus a Python bisection
(the SINR root finders), a small best-response sweep (Nash dynamics) and
12-digit float formatting (CSV rows).  It does not call the package, so a
change to the package cannot move it.

The kernel does not track cold-process set-up, which is import work
(correlation 0.82, and it over-corrected).  Set-up probes are calibrated
instead by importing ``IMPORT_MODULES``, standard-library modules that
neither numpy nor the package loads, in the same child process right
after the measured import: time * REF_IMPORT_S / reference import time.
That cut the probe-to-probe spread from 14-17% to 9% on the same VM.
"""

from __future__ import annotations

import math
import time

import numpy as np

# one kernel unit, and one import of IMPORT_MODULES, on the reference host:
# about their typical times on a 2-core Intel Xeon VM with Python 3.11 and
# numpy 2.4
REF_UNIT_S = 500e-6
REF_IMPORT_S = 40e-3
IMPORT_MODULES = (
    "email.parser", "http.client", "xml.dom.minidom", "tarfile", "difflib",
    "unittest", "smtplib", "mailbox",
)

_GRID = np.geomspace(1e-9, 1e3, 256)
_rng = np.random.default_rng(0)
_GAINS = _rng.exponential(1.0, size=(5, 5))
_CROSS = _rng.exponential(0.5, size=(5, 5))


def unit() -> float:
    """One unit of calibration work; returns a value so none is skipped."""
    acc = 0.0
    for c in (0.0, 0.1, 0.3, 0.5):
        vals = 2 * _GRID * np.exp(-_GRID) * (1.0 - c * _GRID) + np.expm1(-_GRID)
        i = int(np.argmax(vals < 0))
        lo, hi = float(_GRID[i - 1]), float(_GRID[i])
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if 2 * mid * math.exp(-mid) * (1.0 - c * mid) + math.expm1(-mid) > 0:
                lo = mid
            else:
                hi = mid
        acc += lo
    alloc = np.zeros((5, 5))
    for _ in range(6):
        prev = alloc.copy()
        interference = np.einsum("fk,fk->k", _CROSS[1:], alloc[1:])
        k = int(np.argmax(_GAINS[0] / (0.1 + interference)))
        alloc[0] = 0.0
        alloc[0, k] = 1.25 * (0.1 + interference[k]) / _GAINS[0, k]
        for f in range(1, 5):
            denom = 0.1 + _CROSS[0] * alloc[0]
            k = int(np.argmax(_GAINS[f] / denom))
            alloc[f] = 0.0
            alloc[f, k] = 1.25 * denom[k] / _GAINS[f, k]
        acc += float(np.abs(alloc - prev).max())
    return acc + len(",".join(f"{x:.12g}" for x in alloc.ravel()))


class Speed:
    """Accumulated calibration time; ``factor`` > 1 means a slow host."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def measure(self, min_seconds: float) -> None:
        """Run whole units, at least one, for at least ``min_seconds``."""
        start = time.perf_counter()
        while True:
            unit()
            self.units += 1
            spent = time.perf_counter() - start
            if spent >= min_seconds:
                break
        self.seconds += spent

    @property
    def factor(self) -> float:
        return self.seconds / self.units / REF_UNIT_S
