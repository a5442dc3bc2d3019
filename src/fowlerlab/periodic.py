"""Trigonometric interpolation of smooth periodic samples.

Used for the periodic Floquet factors and for periodic expansion
coefficients: samples on a uniform grid over one period are stored as Fourier
coefficients, giving spectrally accurate evaluation and differentiation at
arbitrary points.
"""

from __future__ import annotations

import numpy as np


class PeriodicFunction:
    """A real periodic function reconstructed from uniform samples on [0, T).

    Samples of analytic functions have exponentially decaying spectra; the
    sub-roundoff tail is pure sampling noise and would be amplified by k per
    derivative, so coefficients below `filter_rel` times the peak are zeroed,
    and evaluation sums only up to the last coefficient that survives.
    """

    def __init__(self, values, period: float, filter_rel: float = 1e-13):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 4:
            raise ValueError("need a 1-D array of at least 4 samples")
        self.period = float(period)
        self.n = values.size
        coeffs = np.fft.rfft(values) / self.n
        if filter_rel > 0:
            floor = filter_rel * np.max(np.abs(coeffs))
            coeffs[np.abs(coeffs) < floor] = 0.0
        keep = int(np.flatnonzero(coeffs)[-1]) + 1 if np.any(coeffs) else 1
        # the Nyquist mode appears once in rfft of an even count, not twice
        self._nyquist = self.n % 2 == 0 and keep == coeffs.size
        self._coeffs = coeffs[:keep]
        self._k = np.arange(keep)

    @staticmethod
    def from_closed_grid(values, period: float) -> "PeriodicFunction":
        """Build from samples on a closed grid [0, T] (duplicate endpoint)."""
        return PeriodicFunction(np.asarray(values)[:-1], period)

    def _eval(self, t, order: int):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        omega = 2.0 * np.pi / self.period
        phase = np.exp(1j * omega * np.outer(t, self._k))
        mult = (1j * omega * self._k) ** order if order else np.ones_like(self._k, dtype=complex)
        c = self._coeffs * mult
        vals = np.real(phase @ c) * 2.0
        vals -= np.real(c[0])  # k = 0 was doubled
        if self._nyquist:
            vals -= np.real(phase[:, -1] * c[-1])  # doubled above
        return vals

    def __call__(self, t):
        out = self._eval(t, 0)
        return float(out[0]) if np.isscalar(t) else out

    def derivative(self, t, order: int = 1):
        out = self._eval(t, order)
        return float(out[0]) if np.isscalar(t) else out

    def mean(self) -> float:
        return float(np.real(self._coeffs[0]))
