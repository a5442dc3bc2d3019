import tracemalloc

import numpy as np
import pytest

from fowlerlab import floquet, fowler
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


def phase_sum(f, t, order):
    """The stored coefficients summed through the L x K phase matrix."""
    omega = 2.0 * np.pi / f.period
    k = np.arange(f._coeffs.size)
    weight = np.where(k == 0, 1.0, 2.0)
    if f._nyquist:
        weight[-1] = 1.0
    phase = np.exp(1j * omega * np.outer(t, k))
    return np.real(phase @ (weight * f._coeffs * (1j * omega * k) ** order))


def _assert_orders_match(f, t, reference):
    for order in (0, 1, 2):
        ref = reference(t, order)
        got = f(t) if order == 0 else f.derivative(t, order)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), order


def _period_grids(period, m):
    step = period / m
    return {"closed": np.linspace(0.0, period, m + 1),
            "open": np.arange(m) * step,
            "shifted": 0.3 * period + np.arange(m) * step,
            "back": -period + np.arange(m + 1) * step,
            "three periods": np.linspace(0.0, 3.0 * period, 3 * m + 1)}


@pytest.mark.parametrize("m", [7, 16, 255, 256, 2047])
@pytest.mark.parametrize("make, n", [(_analytic, 256), (_with_nyquist, 16)])
def test_period_grid_evaluation_matches_direct_sum(make, n, m):
    # 7 and 16 steps fold the coefficients (m < 2K) for both functions
    period = 2.7
    values = make(n, period)
    f = PeriodicFunction(values, period)
    for name, t in _period_grids(period, m).items():
        if make is _with_nyquist and name in ("shifted", "three periods"):
            # the reference's own phase roundoff, about k |t| ulp times the
            # derivative of the Nyquist term, reaches the bar here
            continue
        assert f._period_steps(t) == m, name
        _assert_orders_match(
            f, t, lambda t, order: direct_sum(values, period, t, order))


@pytest.mark.parametrize("t", [
    5.0 + np.arange(769) / 64.0,  # a construction window: h = 1/64
    np.arange(257) * (4.057568073848222 / 256) * (1.0 + 1e-10),
], ids=["window", "step off by 1e-10"])
def test_off_period_grids_take_the_split_path(t):
    period = 4.057568073848222
    values = _analytic(256, period)
    f = PeriodicFunction(values, period)
    assert f._period_steps(t) == 0
    _assert_orders_match(
        f, t, lambda t, order: direct_sum(values, period, t, order))


@pytest.mark.parametrize("size", [2, 3, 769, 770])
@pytest.mark.parametrize("make, n", [(_analytic, 256), (_with_nyquist, 16)])
@pytest.mark.parametrize("direction", ["ascending", "descending"])
def test_uniform_off_period_grids_match_direct_sum(make, n, size, direction):
    # 769 and 770 points leave a short last row of the head x tail split
    period = 2.7
    values = make(n, period)
    f = PeriodicFunction(values, period)
    t = 5.0 + np.arange(size) / 64.0
    if direction == "descending":
        t = t[::-1]
    assert f._period_steps(t) == 0
    _assert_orders_match(
        f, t, lambda t, order: direct_sum(values, period, t, order))


def test_window_evaluation_builds_no_phase_matrix():
    # K = 239, as kept by the README CKN degree-2 q+; its 769 x 239 phase
    # matrix alone would be 2.9 MB
    period, n = 4.057568073848222, 512
    s = np.arange(n) * (period / n)
    values = sum(0.97**k * np.cos(2.0 * np.pi * k * s / period)
                 for k in range(239))
    f = PeriodicFunction(values, period)
    assert f._coeffs.size == 239
    t = 5.0 + np.arange(769) / 64.0
    assert f._period_steps(t) == 0
    tracemalloc.start()
    try:
        f(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.fixture(scope="module")
def slow_factor():
    """q+ of degree 1 on conformal n = 3 at eps = 1e-5 xi*, which keeps 878
    Fourier coefficients."""
    params = fowler.FowlerParams.conformal(3, 1.0)
    orb = fowler.periodic_orbit(1e-5 * fowler.constant_solution(params),
                                params)
    return orb, floquet.spectrum(orb, [2.0], with_factors=True)[2.0].q_plus


def test_slow_factor_on_orbit_grid_matches_phase_sum(slow_factor):
    orb, q = slow_factor
    assert q._coeffs.size > 500 and q._period_steps(orb.t) == orb.t.size - 1
    _assert_orders_match(q, orb.t, lambda t, order: phase_sum(q, t, order))


def test_orbit_grid_evaluation_builds_no_phase_matrix(slow_factor):
    # the 2048 x 878 phase matrix alone would be 29 MB
    orb, q = slow_factor
    tracemalloc.start()
    try:
        q(orb.t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
