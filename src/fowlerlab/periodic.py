"""Trigonometric interpolation of smooth periodic samples.

Used for the periodic Floquet factors and for periodic expansion
coefficients: samples on a uniform grid over one period are stored as Fourier
coefficients, giving spectrally accurate evaluation and differentiation at
arbitrary points.  A grid of step T/M covering at least one period (the orbit
samples, the collocation nodes and the output grids) is evaluated by one
length-M inverse FFT and read off by periodicity.  Any other uniform grid of
L points (the construction windows, of step h unrelated to T) is split as
j = aC + b with C = ceil(sqrt(L)): the series is one product of a head table
of phases at t[aC] and a tail table of phases at bh, so it takes about
2 sqrt(L) K complex exponentials for K coefficients where a phase matrix
takes L K.  Scattered points are the same product with C = 1.
"""

from __future__ import annotations

import math

import numpy as np

FILTER_REL = 1e-13  # relative floor below which Fourier coefficients are noise


class PeriodicFunction:
    """A real periodic function reconstructed from uniform samples on [0, T).

    Samples of analytic functions have exponentially decaying spectra; the
    sub-roundoff tail is pure sampling noise and would be amplified by k per
    derivative, so coefficients below FILTER_REL times the peak are zeroed,
    and evaluation sums only up to the last coefficient that survives.
    A call is `derivative` of order 0, a float at a scalar t.
    """

    def __init__(self, values, period: float):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 4:
            raise ValueError("need a 1-D array of at least 4 samples")
        self.period = float(period)
        self.n = values.size
        coeffs = np.fft.rfft(values) / self.n
        coeffs[np.abs(coeffs) < FILTER_REL * np.max(np.abs(coeffs))] = 0.0
        keep = int(np.flatnonzero(coeffs)[-1]) + 1 if np.any(coeffs) else 1
        # the Nyquist mode appears once in rfft of an even count, not twice
        self._nyquist = self.n % 2 == 0 and keep == coeffs.size
        self._coeffs = coeffs[:keep]
        self._k = np.arange(keep)

    @staticmethod
    def from_closed_grid(values, period: float) -> "PeriodicFunction":
        """Build from samples on a closed grid [0, T] (duplicate endpoint)."""
        return PeriodicFunction(np.asarray(values)[:-1], period)

    def _on_grid(self, t, step: float) -> bool:
        """Whether t is t[0] + j step (j = 0 .. t.size - 1) up to roundoff."""
        grid = t[0] + np.arange(t.size) * step
        scale = max(abs(t[0]), abs(t[-1]), self.period)
        return bool(np.max(np.abs(t - grid)) <= 1e-14 * scale)

    def _period_steps(self, t) -> int:
        """M if t is t[0] + j T/M (j = 0 .. t.size - 1, M <= t.size) up to
        roundoff, else 0."""
        if t.ndim != 1 or t.size < 2:
            return 0
        step = t[1] - t[0]
        if not 0.5 * step <= self.period < (t.size + 0.5) * step:
            return 0
        m = int(round(self.period / step))
        return m if self._on_grid(t, self.period / m) else 0

    def _eval(self, t, order: int):
        """The order-th derivative at t; (i omega k)^0 is exactly 1."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        omega = 2.0 * np.pi / self.period
        # the real series is c_0 + sum_k 2 Re(c_k e^{ik omega t}), with a
        # kept Nyquist term counted once
        w = np.where(self._k == 0, 1.0, 2.0)
        if self._nyquist:
            w[-1] = 1.0
        c = w * (self._coeffs * (1j * omega * self._k) ** order)
        m = self._period_steps(t)
        if m:
            # t = t0 + jT/m: bin k mod m collects w_k c_k e^{ik omega t0}, and
            # one inverse FFT sums the series at every point of the period
            c = c * np.exp(1j * omega * t[0] * self._k)
            bins = np.pad(c, (0, -c.size % m)).reshape(-1, m).sum(axis=0)
            return (np.fft.ifft(bins) * m).real[np.arange(t.size) % m]
        # t_j = t_{aC} + b h for j = aC + b, so e^{ik omega t_j} is a head
        # phase at t_{aC} times a tail phase at b h; scattered points are
        # the case C = 1, h = 0
        t, cols, h = t.ravel(), 1, 0.0
        if t.size > 1:
            step = (t[-1] - t[0]) / (t.size - 1)
            if self._on_grid(t, step):
                cols, h = math.ceil(math.sqrt(t.size)), step
        head = np.exp(1j * omega * np.outer(t[::cols], self._k))
        tail = np.exp(1j * omega * h * np.outer(np.arange(cols), self._k))
        return (head @ (tail * c).T).real.ravel()[:t.size]

    def __call__(self, t):
        return self.derivative(t, 0)

    def derivative(self, t, order: int = 1):
        out = self._eval(t, order)
        return float(out[0]) if np.isscalar(t) else out

