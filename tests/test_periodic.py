import numpy as np
import pytest

from fowlerlab.periodic import PeriodicFunction

FILTER = 1e-13


def direct_sum(values, period, t, order):
    """Trigonometric interpolant summed term by term over every rfft
    coefficient, after the same relative filter."""
    n = len(values)
    coeffs = np.fft.rfft(values) / n
    coeffs[np.abs(coeffs) < FILTER * np.max(np.abs(coeffs))] = 0.0
    omega = 2.0 * np.pi / period
    out = np.zeros_like(t)
    for k, ck in enumerate(coeffs):
        weight = 1.0 if k == 0 or 2 * k == n else 2.0  # Nyquist counted once
        out += weight * np.real(ck * (1j * omega * k) ** order
                                * np.exp(1j * omega * k * t))
    return out


def _analytic(n, period):
    s = np.arange(n) * (period / n)
    w = 2.0 * np.pi / period
    return np.exp(np.cos(w * s)) + 0.3 * np.sin(3.0 * w * s)


def _with_nyquist(n, period):
    s = np.arange(n) * (period / n)
    w = 2.0 * np.pi / period
    return 1.0 + 0.5 * np.cos(w * s) + 0.25 * np.cos(n // 2 * w * s)


@pytest.mark.parametrize("make, n, trimmed", [
    (_analytic, 256, True),
    (_analytic, 255, True),
    (_with_nyquist, 16, False),
])
def test_trimmed_evaluation_matches_direct_sum(make, n, trimmed):
    period = 2.7
    values = make(n, period)
    f = PeriodicFunction(values, period)
    assert (f._coeffs.size < n // 2 + 1) == trimmed
    t = np.random.default_rng(5).uniform(-period, 2.0 * period, 300)
    for order in (0, 1, 2):
        ref = direct_sum(values, period, t, order)
        got = f(t) if order == 0 else f.derivative(t, order)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), order


def test_nyquist_mode_reproduced_between_nodes():
    # the surviving Nyquist term enters once: cos(n/2 w t) exactly
    period, n = 2.7, 16
    f = PeriodicFunction(_with_nyquist(n, period), period)
    t = np.linspace(0.0, period, 41)
    w = 2.0 * np.pi / period
    expected = 1.0 + 0.5 * np.cos(w * t) + 0.25 * np.cos(n // 2 * w * t)
    assert np.max(np.abs(f(t) - expected)) < 1e-14
