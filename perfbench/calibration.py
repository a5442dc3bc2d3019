"""A fixed reference computation that tracks the machine's current speed.

On a shared machine the same pass takes up to a third longer in one
twenty-second window than in the next, and a computation that does not
touch fowlerlab slows down with it.  The benchmark times this kernel
between the operations of its passes, at a fixed share of the time, and
around its set-up probes, and reports times rescaled to the speed at
which the kernel takes REFERENCE_S seconds:

    reported = measured * REFERENCE_S / median(kernel times in the run)

The kernel does what the library spends its time on: an adaptive DOP853
integration with a Python right-hand side, small dense SVDs, and complex
exponentials of a 256 x 1024 phase matrix with a matrix-vector product.
It depends on numpy and scipy only, so a change to fowlerlab cannot move
it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

REFERENCE_S = 0.16     # typical kernel time on the 2-core machine it was tuned on
SHARE = 0.1            # share of the run's time spent in the kernel

_MATRIX = np.random.default_rng(0).standard_normal((128, 128))
_TIMES = np.linspace(0.0, 1.0, 256)
_WAVES = np.arange(1024)
_COEFFS = np.ones(1024)


def _hill_rhs(t, y):
    return [y[1], -(1.0 + 0.5 * np.cos(t)) * y[0]]


def kernel():
    solve_ivp(_hill_rhs, (0.0, 60.0), [1.0, 0.0], method="DOP853",
              rtol=1e-12, atol=1e-14)
    for _ in range(8):
        np.linalg.svd(_MATRIX)
    for _ in range(6):
        np.exp(1j * np.outer(_TIMES, _WAVES)) @ _COEFFS


class Calibration:
    """Kernel times collected over one run.

    `tick()` goes between the operations of a pass: it runs the kernel when
    the last run ended long enough ago to keep the kernel at SHARE of the
    time, so the samples spread evenly over the run.  `spent` is the total
    kernel time, for the caller to take out of its own timings.
    """

    def __init__(self):
        self.times = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.times.append(self._last - t0)
        self.spent += self.times[-1]

    def tick(self):
        if time.perf_counter() - self._last >= REFERENCE_S / SHARE:
            self.sample()

    def median(self) -> float:
        return statistics.median(self.times)

    def factor(self) -> float:
        """Multiplier from measured seconds to reference seconds."""
        return REFERENCE_S / self.median()
