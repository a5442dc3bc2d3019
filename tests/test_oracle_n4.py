"""Exact oracle for conformal n = 4 orbits and their mode operators.

For n = 4 (q = 1, e = 3) the Fowler equation xi'' = xi - c xi^3 is Duffing's
equation, solved by

    xi(t) = A dn(beta t + K(m), m),  beta = 1/sqrt(2 - m),  A = beta sqrt(2/c),

with minimum eps = A sqrt(1 - m) at t = 0 and period T = 2K(m)/beta.  With
r = eps^2 c / 2 the complementary parameter is m1 = 1 - m = r/(1 - r), which
is passed to `ellipkm1` directly because m rounds to 1 on small necks.

With u = beta t + K every mode operator -y'' + (lambda + 1 - 3c xi^2) y
becomes the l = 2 Lame operator -y_uu + 6m sn^2(u) y = h y with
h = 6 - (lambda + 1)/beta^2.  Its five band edges h = 1 + m, 1 + 4m, 4 + m
and 2(1 + m) +- 2 sqrt(1 - m + m^2) carry (anti)periodic eigenfunctions
(Whittaker & Watson, Modern Analysis, ch. 23), so the monodromy trace at
lambda = (6 - h) beta^2 - 1 is exactly +-2.
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import ellipj, ellipkm1

from fowlerlab import floquet, fowler

CURVATURES = (1.0, 2.0)
NECKS = (0.8, 0.5, 0.1, 1e-3, 1e-5)  # eps / xi*


@functools.lru_cache(maxsize=None)
def _orbit(c, frac):
    params = fowler.FowlerParams.conformal(4, c)
    return fowler.periodic_orbit(frac * fowler.constant_solution(params),
                                 params)


def _closed_form(eps, c):
    """(m, beta, A, K) of the dn orbit with minimum eps."""
    r = eps * eps * c / 2.0
    m1 = r / (1.0 - r)
    beta = 1.0 / math.sqrt(1.0 + m1)
    return 1.0 - m1, beta, beta * math.sqrt(2.0 / c), float(ellipkm1(m1))


@pytest.mark.parametrize("c", CURVATURES)
@pytest.mark.parametrize("frac", NECKS)
def test_period_matches_complete_elliptic_integral(c, frac):
    orb = _orbit(c, frac)
    _, beta, _, k = _closed_form(orb.epsilon, c)
    assert abs(orb.period / (2.0 * k / beta) - 1.0) < 1e-11


# below 1e-3 xi* ellipj itself loses accuracy as m -> 1, so the samples
# are compared only on the wider necks
@pytest.mark.parametrize("c", CURVATURES)
@pytest.mark.parametrize("frac", [f for f in NECKS if f >= 1e-3])
def test_orbit_samples_match_dn(c, frac):
    orb = _orbit(c, frac)
    m, beta, amp, k = _closed_form(orb.epsilon, c)
    sn, cn, dn, _ = ellipj(beta * orb.t + k, m)
    xi = amp * dn
    xi_prime = -amp * beta * m * sn * cn
    assert np.max(np.abs(orb.xi - xi)) < 1e-10 * np.max(np.abs(xi))
    assert (np.max(np.abs(orb.xi_prime - xi_prime))
            < 5e-10 * np.max(np.abs(xi_prime)))


@pytest.mark.parametrize("c", CURVATURES)
@pytest.mark.parametrize("frac", [0.5, 0.8])
def test_lame_band_edges_have_trace_two(c, frac):
    orb = _orbit(c, frac)
    m, beta, _, _ = _closed_form(orb.epsilon, c)
    root = 2.0 * math.sqrt(1.0 - m + m * m)
    edges = (1.0 + m, 1.0 + 4.0 * m, 4.0 + m,
             2.0 * (1.0 + m) + root, 2.0 * (1.0 + m) - root)
    lams = [(6.0 - h) * beta**2 - 1.0 for h in edges]
    traces = np.trace(floquet.monodromy(orb, lams)[0], axis1=1, axis2=2)
    assert np.all(np.abs(np.abs(traces) - 2.0) <= 1e-9)
