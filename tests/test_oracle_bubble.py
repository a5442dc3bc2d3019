"""Slow-orbit oracle from the bubble chain, for every n and for CKN.

As eps -> 0 a Fowler orbit becomes a chain of standard bubbles, spaced one
period apart.  The bubble is the homoclinic orbit of -xi'' + q xi = c xi^e,

    xi_h(t) = P sech^{2/(e-1)}((e - 1) sqrt(q) t / 2),
    P = (q (e + 1) / (2c))^{1/(e-1)},

P the upper turning bound.  Matching eps cosh(sqrt(q) s), the linear motion
near the minimum, to the bubble's tail 2^{2/(e-1)} P e^{-sqrt(q) |t|} gives
the period law

    T(eps) = (2 / sqrt(q)) ln(2A / eps) + o(1),    A = 2^{2/(e-1)} P.

From 1e-32 xi* down, the law and the quadrature period agree to about
2e-15 relative (T from 100 to 930 here); at 1e-6 xi* the chain
sum_k xi_h(t - T/2 - kT) matches the shot samples to the shooting's own
accuracy.
"""

import math

import numpy as np
import pytest

from fowlerlab import fowler

PROBLEMS = {f"conformal n = {n}": fowler.FowlerParams.conformal(n, 1.0)
            for n in range(3, 9)}
PROBLEMS["ckn (5, 0.5, 0.7)"] = fowler.FowlerParams.ckn(5, 0.5, 0.7)
PERIOD_LAW_TOL = 3e-12  # absolute; measured at most 2.05e-12 (n = 3)
CHAIN_TOL = 1e-11  # relative to P; measured 2.95e-12 to 5.64e-12


def _law(eps, params):
    a = fowler.upper_turning_bound(params) * 2.0 ** (2.0 / (params.e - 1.0))
    return 2.0 / math.sqrt(params.q) * math.log(2.0 * a / eps)


def _bubble(t, params):
    p, q, e = fowler.upper_turning_bound(params), params.q, params.e
    return p / np.cosh((e - 1.0) * math.sqrt(q) * t / 2.0) ** (2.0 / (e - 1.0))


@pytest.mark.parametrize("frac", [1e-32, 1e-100, 1e-120])
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_quadrature_period_follows_the_bubble_law(name, frac):
    params = PROBLEMS[name]
    eps = frac * fowler.constant_solution(params)
    assert abs(fowler.period_quadrature(eps, params)
               - _law(eps, params)) <= PERIOD_LAW_TOL


@pytest.mark.parametrize("name", ["conformal n = 3", "conformal n = 5",
                                  "ckn (5, 0.5, 0.7)"])
def test_shot_samples_match_the_bubble_chain(name):
    params = PROBLEMS[name]
    orb = fowler.periodic_orbit(1e-6 * fowler.constant_solution(params), params)
    T = orb.period
    # the bubbles left out, |k| >= 3, add about (eps / 2A)^5 of P
    chain = sum(_bubble(orb.t - T / 2.0 - k * T, params) for k in range(-2, 3))
    error = np.max(np.abs(orb.xi - chain)) / fowler.upper_turning_bound(params)
    assert error <= CHAIN_TOL
