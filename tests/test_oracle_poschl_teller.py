"""Slow-orbit Floquet oracle: the Pöschl–Teller well of the bubble.

On the bubble xi_h of test_oracle_bubble.py the mode potential is
V = kappa^2 - W with kappa = sqrt(lambda + q) and

    W = e c xi_h^{e-1} = l (l + 1) alpha^2 sech^2(alpha s),
    alpha = (e - 1) sqrt(q) / 2,    l (l + 1) = 2e (e + 1) / (e - 1)^2,

a Pöschl–Teller well (Pöschl & Teller, Z. Phys. 83, 1933); conformal
problems have alpha = 1 and l = n/2.  Across the well the solution
e^{kappa s} leaves as A e^{kappa s}, with z = kappa / alpha and

    A(z) = Gamma(1 + z) Gamma(z) / (Gamma(z + 1 + l) Gamma(z - l)),

for z > l.  Between bubbles W is negligible, so over one period the growth
is A e^{kappa T} and

    sigma = kappa + ln A(z) / T + o(1/T).

Conformal degree 1 sits at z = l = n/2 exactly, where A = 0 (the bubble's
translation mode is the well's ground state) and the formula says nothing.
The o(1/T) term falls roughly like eps to eps^2 (measured, not derived),
so the closed form is tested from 1e-6 xi* down only.
"""

import math

import pytest

from fowlerlab import floquet, fowler

CONFORMAL = {n: fowler.FowlerParams.conformal(n, 1.0) for n in (3, 4, 5, 6)}
CKN = fowler.FowlerParams.ckn(5, 0.5, 0.7)
DEGENERATE_MARGIN = 1e-9  # relative: z within it of l is refused


def closed_form(params, period, lam):
    """kappa + ln A(z) / T, the Pöschl–Teller exponent of eigenvalue `lam`
    on an orbit of period `period`."""
    q, e = params.q, params.e
    kappa = math.sqrt(lam + q)
    alpha = (e - 1.0) * math.sqrt(q) / 2.0
    ell = (math.sqrt(1.0 + 8.0 * e * (e + 1.0) / (e - 1.0) ** 2) - 1.0) / 2.0
    z = kappa / alpha
    if z - ell <= DEGENERATE_MARGIN * ell:
        raise ValueError(f"the Pöschl–Teller form needs z > l, got "
                         f"z = {z!r}, l = {ell!r} (lambda = {lam!r})")
    ln_a = (math.lgamma(1.0 + z) + math.lgamma(z)
            - math.lgamma(z + 1.0 + ell) - math.lgamma(z - ell))
    return kappa + ln_a / period


def _distances(params, frac, lams):
    """sigma minus the closed form for each eigenvalue of `lams`, on the
    orbit at frac xi*."""
    orb = fowler.periodic_orbit(frac * fowler.constant_solution(params), params)
    data = floquet.spectrum(orb, lams)
    return [data[lam].sigma - closed_form(params, orb.period, lam)
            for lam in lams]


# (params, lambda, frac, bar): the bars are 4-5 times the measured
# distances in the comments; conformal rows are the lowest degree >= 2
ROWS = [
    (CONFORMAL[3], 6.0, 1e-6, 5e-14),    # -1.1e-14
    (CONFORMAL[3], 6.0, 1e-8, 5e-14),    # -1.1e-14
    (CONFORMAL[4], 8.0, 1e-6, 1e-12),    # -2.5e-13
    (CONFORMAL[4], 8.0, 1e-8, 8e-14),    # -1.6e-14
    (CONFORMAL[5], 10.0, 1e-6, 1e-9),    # -2.5e-10
    (CONFORMAL[5], 10.0, 1e-8, 2e-12),   # -4.9e-13
    (CONFORMAL[6], 12.0, 1e-6, 2.5e-12), # -5.7e-13
    (CONFORMAL[6], 12.0, 1e-8, 4e-13),   # -8.7e-14
    (CKN, 4.0, 1e-6, 2.5e-8),            # +5.6e-9, degree 1: z = 4.75 > l
    (CKN, 4.0, 1e-8, 2.5e-10),           # +5.8e-11
    (CKN, 10.0, 1e-6, 1.6e-8),           # +3.8e-9
    (CKN, 10.0, 1e-8, 1.6e-10),          # +3.9e-11
    (CKN, 18.0, 1e-6, 1.2e-8),           # +2.9e-9
    (CKN, 18.0, 1e-8, 1.2e-10),          # +3.0e-11
]


@pytest.mark.parametrize("params, lam, frac, bar", ROWS, ids=[
    f"{p.kind}-n{p.n}-lambda{lam:g}-{frac:g}" for p, lam, frac, _ in ROWS])
def test_slow_orbit_exponent_is_the_poschl_teller_form(params, lam, frac,
                                                       bar):
    (distance,) = _distances(params, frac, [lam])
    assert abs(distance) <= bar, distance


def test_every_degree_of_a_slow_orbit_follows_the_form():
    # n = 3 at 1e-6 xi*, degrees 2..11 (lambda = 6 ... 132): measured
    # within 1.1e-14
    lams = [k * (k + 1.0) for k in range(2, 12)]
    distances = _distances(CONFORMAL[3], 1e-6, lams)
    assert max(map(abs, distances)) <= 5e-14, distances


@pytest.mark.parametrize("n", sorted(CONFORMAL))
def test_conformal_degree_one_is_refused(n):
    # lambda = n - 1 gives kappa = n/2 = l: A(z) = 0 and no exponent
    params = CONFORMAL[n]
    with pytest.raises(ValueError, match="needs z > l"):
        closed_form(params, 100.0, n - 1.0)
    closed_form(params, 100.0, 2.0 * n)  # degree 2 is outside the margin
