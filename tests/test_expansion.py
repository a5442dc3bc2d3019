import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import lu_factor, lu_solve

from fowlerlab import expansion, floquet, fowler, spheres
from fowlerlab.periodic import PeriodicFunction


def test_translate_reduces_to_orbit_at_zero(conf5_orbit):
    for t in (5.0, 7.3, 11.2):
        v = expansion.translate_zonal(conf5_orbit, 0.0, t, 0.4)
        assert_allclose(v, conf5_orbit.value(t), rtol=1e-14)
    v = expansion.translate_zonal(conf5_orbit, 0.0, 6.0, 0.0)
    assert_allclose(v, conf5_orbit.value(6.0), rtol=1e-14)


def test_translate_domain_error(conf5_orbit):
    with pytest.raises(ValueError, match="ln|a|".replace("|", r"\|")):
        expansion.translate_zonal(conf5_orbit, 20.0, 1.0, 1.0)


@pytest.mark.parametrize("a", [[math.nan, 0.0], [0.5, -math.inf],
                               [1e154, 1e154]])
def test_translate_expansion_refuses_amplitudes_with_no_finite_terms(
        conf5_orbit, a):
    # the last has finite entries and |a|^2 = 2e308, which overflows
    a = np.array(a + [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=re.escape(f"a = {a.tolist()!r}")):
        expansion.translate_expansion(conf5_orbit, a, 1)


def test_translate_orthogonal_direction_decays_quadratically(conf5_orbit):
    # at <a, theta> = 0 the first-order term vanishes, so xi_a - xi = O(e^{-2t})
    orb = conf5_orbit
    ts = np.linspace(5.0, 11.0, 61)
    diff = np.abs(expansion.translate_zonal(orb, 0.7, ts, 0.0) - orb.value(ts))
    slope = -np.polyfit(ts, np.log(diff), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_translate_expansion_terms_structure(conf5_orbit):
    assert expansion.translate_expansion(conf5_orbit, np.zeros(5), 2) == []
    a = np.zeros(5)
    a[0] = 0.4
    terms1 = expansion.translate_expansion(conf5_orbit, a, 1)
    assert [t.mode.degree for t in terms1] == [1]
    terms2 = expansion.translate_expansion(conf5_orbit, a, 2)
    assert [t.mode.degree for t in terms2] == [1, 2, 0]
    assert all(t.mu == 2.0 for t in terms2[1:])
    with pytest.raises(ValueError, match="order"):
        expansion.translate_expansion(conf5_orbit, a, 3)


def test_first_order_coefficient_at_orbit_extremum(conf5_orbit):
    # where xi' = 0 (t = 0), the coefficient is (n-2)/2 xi
    orb = conf5_orbit
    term = expansion.translate_expansion(conf5_orbit, np.array([0.4, 0, 0, 0, 0]), 1)[0]
    assert_allclose(term.coeff(0.0), 0.4 * 1.5 * orb.epsilon,
                    rtol=1e-9)


def test_remainder_slopes(conf5_orbit):
    orb = conf5_orbit
    amag = 0.9
    a = np.zeros(5)
    a[0] = amag
    ts = np.linspace(5.0, 12.0, 141)
    svals = np.linspace(-1.0, 1.0, 21)
    exact = np.array([expansion.translate_zonal(orb, amag, ts, s)
                      for s in svals]).T
    base = orb.value(ts)[:, None]
    for order, target in ((1, 2.0), (2, 3.0)):
        model = expansion.evaluate_terms(
            expansion.translate_expansion(orb, a, order), ts, svals)
        rem = np.max(np.abs(exact - base - model), axis=1)
        mask = rem > 3e-14
        slope = -np.polyfit(ts[mask], np.log(rem[mask]), 1)[0]
        assert abs(slope / target - 1.0) < 0.10, (order, slope)


def test_xi2_pair_consistent_with_translate(conf6_orbit):
    # with |a| = 1 the translate's quadratic terms are the pair (degrees 2
    # and 0 at rate 2); |a| enters their coefficients squared
    a = np.zeros(6)
    a[0] = 1.0
    t2, t0 = expansion.translate_expansion(conf6_orbit, a, 2)[1:]
    assert [(t.mode.degree, t.mu, t.t_power) for t in (t2, t0)] == [
        (2, 2.0, 0), (0, 2.0, 0)]
    terms = expansion.translate_expansion(conf6_orbit, 0.5 * a, 2)
    ts = conf6_orbit.t[::97]
    assert_allclose(0.25 * t2.coeff(ts), terms[1].coeff(ts), rtol=1e-12)
    assert_allclose(0.25 * t0.coeff(ts), terms[2].coeff(ts), rtol=1e-12)


def test_xi2_identity_defect_small(conf6_orbit):
    assert expansion.xi2_identity_defect(conf6_orbit) < 1e-6
    const = fowler.constant_orbit(fowler.FowlerParams.conformal(6, 1.0))
    assert expansion.xi2_identity_defect(const) < 1e-6


def _xi2_defect_on_101_cosines(orbit):
    """xi2_identity_defect with the field formed on all 101 cosines."""
    params, n = orbit.params, orbit.params.n
    t = orbit.t[:-1]
    xi, xip = orbit.xi[:-1], orbit.xi_prime[:-1]
    e, c, q = params.e, params.c, params.q
    xi_em1 = xi ** (e - 1.0)
    v0 = q - e * c * xi_em1
    xipp = q * xi - c * xi**e
    xippp = v0 * xip
    a0 = -0.5 * c * xi**e
    a1 = -0.5 * c * e * xi_em1 * xip
    a2 = -0.5 * c * e * ((e - 1.0) * xi ** (e - 2.0) * xip**2
                         + xi_em1 * xipp)
    b0 = -(n - 2) / 8.0 * xi + 0.25 * xip
    b1 = -(n - 2) / 8.0 * xip + 0.25 * xipp
    b2 = -(n - 2) / 8.0 * xipp + 0.25 * xippp

    def conjugated(f0, f1, f2, lam):
        return -f2 + 4.0 * f1 - 4.0 * f0 + (v0 + lam) * f0

    lam2 = spheres.eigenvalue(2, n)
    c2_part, c0_part = spheres.degree1_square_split(n)
    w = n - 1.0
    lc22 = w * (conjugated(a0, a1, a2, lam2) / n
                - 2.0 * conjugated(b0, b1, b2, lam2))
    lc20 = conjugated(a0, a1, a2, 0.0) / n
    p_plus = (n - 2) / 2.0 * xi - xip
    rhs = 2.0 * (n + 2) / (n - 2) ** 2 * c * xi ** ((6.0 - n) / (n - 2)) * p_plus**2
    defect2 = lc22 - c2_part * rhs
    defect0 = lc20 - c0_part * rhs
    s = np.linspace(-1.0, 1.0, 101)
    z2 = spheres.eval_zonal(spheres.HarmonicMode(2, n), s)
    field = (np.outer(defect2, z2) + defect0[:, None]) * np.exp(-2.0 * t)[:, None]
    return float(np.max(np.abs(field)))


@pytest.mark.parametrize("orbit", ["conf3_orbit", "conf5_orbit",
                                   "conf6_orbit", "const5_orbit"])
def test_xi2_identity_defect_is_bitwise_the_101_cosine_form(orbit, request):
    # the maximum is taken at z2's two extreme samples only
    orb = request.getfixturevalue(orbit)
    assert expansion.xi2_identity_defect(orb) == _xi2_defect_on_101_cosines(orb)


def test_coefficient_of_degree_zero_part(conf6_orbit):
    # the degree-0 coefficient is -K0 xi^e / n times |a|^2
    orb = conf6_orbit
    a = np.zeros(6)
    a[0] = 0.5
    term0 = expansion.translate_expansion(orb, a, 2)[2]
    ts = np.array([0.0, 1.0, 2.0])
    expected = -0.25 * orb.value(ts) ** orb.params.e / 6.0 / 2.0
    assert_allclose(term0.coeff(ts), expected, rtol=1e-9)


def test_resonant_solver_constant_coefficient_cases(const5_orbit):
    lam = 4.0
    op = floquet.ModeOperator(const5_orbit, lam)
    v = lam + const5_orbit.params.q * (1 - const5_orbit.params.e)

    # off resonance: r0 = A / (V - mu^2)
    mu = 1.7
    sol = expansion.solve_resonant_mode(lambda t: np.ones_like(t), mu, op)
    assert not sol.resonant and sol.max_power == 0
    assert_allclose(sol.coefficients[0](np.array([0.3]))[0],
                    1.0 / (v - mu * mu), rtol=1e-9)

    # resonance mu = sigma = 1: r1 = +A/(2 mu), r0 gauged to zero; the sign
    # is fixed by direct substitution: L((t/2) e^{-t}) = e^{-t} when V = 1
    sol_r = expansion.solve_resonant_mode(lambda t: np.ones_like(t), 1.0, op)
    assert sol_r.resonant and sol_r.max_power == 1
    assert_allclose(sol_r.coefficients[1](np.array([0.2]))[0], 0.5, rtol=1e-9)
    assert np.max(np.abs(sol_r.coefficients[0](const5_orbit.t))) < 1e-12
    assert sol_r.residual < 1e-8


def test_resonant_solver_verifies_by_direct_substitution(const5_orbit):
    # independent oracle: apply L_i to the assembled solution with exact
    # derivatives of e^{-mu t} t^j r_j for constant r_j
    op = floquet.ModeOperator(const5_orbit, 4.0)
    sol = expansion.solve_resonant_mode(lambda t: np.ones_like(t), 1.0, op)
    ts = np.linspace(0.1, 3.0, 7)
    r1 = sol.coefficients[1](ts)
    # phi = r1 t e^{-t}; L phi = -phi'' + V phi with V = 1
    phi_pp = r1 * np.exp(-ts) * (ts - 2.0)
    residual = -phi_pp + 1.0 * r1 * ts * np.exp(-ts) - np.exp(-ts) * 1.0
    assert np.max(np.abs(residual)) < 1e-9


def test_resonant_solver_nonconstant_residual_and_linearity(conf6_orbit):
    op = floquet.ModeOperator(conf6_orbit, 5.0)
    T = conf6_orbit.period
    nodes = np.arange(256) * (T / 256)
    forcing = 1 + 0.3 * np.cos(2 * np.pi * nodes / T) \
        + 0.1 * np.sin(4 * np.pi * nodes / T)
    sol = expansion.solve_resonant_mode(forcing, 1.4, op)
    assert sol.residual < 1e-8
    sol_scaled = expansion.solve_resonant_mode(2.5 * forcing, 1.4, op)
    dev = np.max(np.abs(sol_scaled.coefficients[0](nodes)
                        - 2.5 * sol.coefficients[0](nodes)))
    assert dev < 1e-9


def test_resonant_solver_forcing_forms(conf6_orbit):
    # a callable (a PeriodicFunction among them) or the values on the
    # collocation nodes; an array of any other length is refused
    op = floquet.ModeOperator(conf6_orbit, 5.0)
    T = conf6_orbit.period
    nodes = np.arange(expansion.COLLOCATION_SIZE) * (
        T / expansion.COLLOCATION_SIZE)
    forcing = PeriodicFunction(1 + 0.3 * np.cos(2 * np.pi * nodes / T), T)
    from_values = expansion.solve_resonant_mode(forcing(nodes), 1.4, op)
    from_callable = expansion.solve_resonant_mode(forcing, 1.4, op)
    assert np.array_equal(from_values.coefficients[0](nodes),
                          from_callable.coefficients[0](nodes))
    named = conf6_orbit.named(("lambda", 5.0), ("mu", 1.4))
    with pytest.raises(ValueError, match=r"forcing array of shape \(128,\).*"
                                         + re.escape(f"({named})")):
        expansion.solve_resonant_mode(forcing(nodes[::2]), 1.4, op)


def test_resonant_solver_nonconstant_resonance(conf6_orbit):
    op = floquet.ModeOperator(conf6_orbit, 5.0)  # sigma = 1 mode
    T = conf6_orbit.period
    nodes = np.arange(256) * (T / 256)
    forcing = 1 + 0.2 * np.cos(2 * np.pi * nodes / T)
    sol = expansion.solve_resonant_mode(forcing, 1.0, op)
    assert sol.resonant and sol.max_power == 1
    assert sol.residual < 1e-8
    # the t-coefficient is a multiple of the kernel factor
    d = floquet.mode_datum(conf6_orbit, 1, 5.0, 1, with_factors=True)
    qk = d.q_plus(nodes)
    r1 = sol.coefficients[1](nodes)
    ratio = r1 @ qk / (qk @ qk)
    assert np.max(np.abs(r1 - ratio * qk)) < 1e-8 * max(1.0, abs(ratio))


@pytest.mark.parametrize("params, frac, degree", [
    (fowler.FowlerParams.conformal(5, 1.0), 0.5, 2),
    (fowler.FowlerParams.ckn(5, 0.436, 0.613), 0.41, 1),
], ids=["conformal-n5-degree2", "ckn-degree1"])
def test_resonant_solve_meets_residual_limit(params, frac, degree):
    # orbits where a kernel direction taken from the sampled q+ carried its
    # roundoff through the spectral d2 into a residual above the limit
    orbit = fowler.periodic_orbit(frac * fowler.constant_solution(params),
                                  params)
    lam = float(spheres.eigenvalue(degree, params.n))
    d = floquet.mode_datum(orbit, 0, lam, degree)
    sol = expansion.solve_resonant_mode(lambda t: np.ones_like(t), d.sigma,
                                        floquet.ModeOperator(orbit, lam))
    assert sol.resonant and sol.max_power == 1
    assert sol.residual < expansion.RESIDUAL_LIMIT


def test_resonant_solver_oscillatory_mode0(conf5_orbit):
    # mode 0 has no hyperbolic exponent; the same collocation applies
    op = floquet.ModeOperator(conf5_orbit, 0.0)
    sol = expansion.solve_resonant_mode(lambda t: np.ones_like(t), 0.8, op)
    assert sol.oscillatory and sol.residual < 1e-8


def test_higher_power_forcing(const5_orbit):
    # forcing a(t) t e^{-mu t} off resonance keeps max power 1
    op = floquet.ModeOperator(const5_orbit, 4.0)
    sol = expansion.solve_resonant_mode(lambda t: np.ones_like(t), 1.6, op,
                                        t_power=1)
    assert sol.max_power == 1 and sol.residual < 1e-8
    # oracle by substitution: with d := V - mu^2, L((a/d) t e^{-mu t}) =
    # a t e^{-mu t} + (2 mu a / d) e^{-mu t}, so r1 = a/d, r0 = -2 mu a/d^2
    v = 4.0 + const5_orbit.params.q * (1 - const5_orbit.params.e)
    d = v - 1.6 ** 2
    assert_allclose(sol.coefficients[1](np.array([0.1]))[0], 1.0 / d,
                    rtol=1e-9)
    assert_allclose(sol.coefficients[0](np.array([0.1]))[0],
                    -2.0 * 1.6 / d ** 2, rtol=1e-9)


def test_expansion_term_evaluate(conf5_orbit):
    term = expansion.first_order_term(conf5_orbit, amplitude=2.0)
    ts = np.array([1.0, 3.0])
    svals = np.array([-0.5, 1.0])
    vals = term.evaluate(ts, svals)
    n = conf5_orbit.params.n
    expected = (2.0 * ((n - 2) / 2 * conf5_orbit.value(ts)
                       - conf5_orbit.derivative(ts))
                * np.exp(-ts))[:, None] * np.array([-0.5, 1.0])[None, :]
    assert_allclose(vals, expected, rtol=1e-9)


def test_resonant_cascade_with_t_power_forcing(conf6_orbit):
    # forcing a(t) t e^{-sigma t} at resonance: powers run to 2 and the
    # built-in substitution residual is the oracle for the two-level
    # solvability cascade
    op = floquet.ModeOperator(conf6_orbit, 5.0)  # sigma = 1 mode, n = 6
    T = conf6_orbit.period
    nodes = np.arange(256) * (T / 256)
    forcing = 1 + 0.25 * np.cos(2 * np.pi * nodes / T)
    sol = expansion.solve_resonant_mode(forcing, 1.0, op, t_power=1)
    assert sol.resonant and sol.max_power == 2
    assert sol.residual < 1e-8


@pytest.mark.parametrize("num", [255, 256])
@pytest.mark.parametrize("order", [1, 2])
def test_fourier_diff_matrix_matches_fft_of_identity(num, order):
    # reference: the multiplier applied to the FFT of every unit vector
    period = 7.3
    k = np.fft.fftfreq(num, d=period / num) * 2.0 * np.pi
    mult = (1j * k) ** order
    if order % 2 == 1 and num % 2 == 0:
        mult[num // 2] = 0.0
    ref = np.real(np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(num), axis=0),
                              axis=0))
    got = expansion._circulant(expansion._diff_multiplier(num, period, order))
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


# Reference for the bordered-LU resonant solve: the dense algorithm it
# replaced, a pseudo-inverse from a full SVD of the collocation matrix with
# the null pair read from the last singular vectors.

REFERENCE_ORBITS = {
    "n3-0.35": (fowler.FowlerParams.conformal(3, 1.0), 0.35),
    "n3-0.65": (fowler.FowlerParams.conformal(3, 1.0), 0.65),
    "n5-0.35": (fowler.FowlerParams.conformal(5, 1.0), 0.35),
    "n5-0.65": (fowler.FowlerParams.conformal(5, 1.0), 0.65),
    "n8-0.35": (fowler.FowlerParams.conformal(8, 1.0), 0.35),
    "n8-0.65": (fowler.FowlerParams.conformal(8, 1.0), 0.65),
    "ckn-0.41": (fowler.FowlerParams.ckn(5, 0.436, 0.613), 0.41),
}


@functools.lru_cache(maxsize=None)
def _reference_orbit(case):
    params, frac = REFERENCE_ORBITS[case]
    orbit = fowler.periodic_orbit(frac * fowler.constant_solution(params),
                                  params)
    # degrees 1 and 2 with their kernel factors in one batch
    floquet.exponent_sequence(orbit, spheres.index_of_last_degree(params.n, 2),
                              with_factors=True)
    return orbit


@functools.lru_cache(maxsize=None)
def _reference_setup(case, degree):
    orbit = _reference_orbit(case)
    lam = float(spheres.eigenvalue(degree, orbit.params.n))
    op = floquet.ModeOperator(orbit, lam)
    num = expansion.COLLOCATION_SIZE
    T = orbit.period
    nodes = np.arange(num) * (T / num)
    mu = floquet.mode_datum(orbit, 0, lam, degree).sigma
    d1 = expansion._circulant(expansion._diff_multiplier(num, T, 1))
    a_mat = (-expansion._circulant(expansion._diff_multiplier(num, T, 2))
             + 2.0 * mu * d1
             + np.diag(op.potential(nodes) - mu * mu))
    return op, mu, nodes, d1, np.linalg.svd(a_mat)


def _svd_reference(case, degree, t_power, a_nodes):
    op, mu, nodes, d1, (u, s, vt) = _reference_setup(case, degree)
    keep = s > np.finfo(float).eps * s.size * s[0]

    def pinv(b):
        return vt[keep].T @ ((u[:, keep].T @ b) / s[keep])

    w_null, qk = u[:, -1], vt[-1]
    gvec = -2.0 * (d1 @ qk) + 2.0 * mu * qk
    top = t_power + 1
    rs = [np.zeros(nodes.size) for _ in range(top + 1)]
    for k in range(top - 1, -1, -1):
        base = a_nodes if k == t_power else np.zeros(nodes.size)
        base = base - (k + 1) * (-2.0 * (d1 @ rs[k + 1]) + 2.0 * mu * rs[k + 1])
        if k + 2 <= top:
            base = base + (k + 1) * (k + 2) * rs[k + 2]
        gamma = (w_null @ base) / ((k + 1) * (w_null @ gvec))
        rs[k + 1] = rs[k + 1] + gamma * qk
        sol = pinv(base - gamma * (k + 1) * gvec)
        rs[k] = sol - (qk @ sol) * qk
    return rs


@pytest.mark.parametrize("t_power", [0, 1])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("case", list(REFERENCE_ORBITS))
def test_resonant_solve_matches_svd_reference(case, degree, t_power):
    op, mu, nodes, _, _ = _reference_setup(case, degree)
    T = op.orbit.period
    a_nodes = 1 + 0.3 * np.cos(2 * np.pi * nodes / T) \
        + 0.1 * np.sin(4 * np.pi * nodes / T)
    sol = expansion.solve_resonant_mode(a_nodes, mu, op, t_power=t_power)
    assert sol.resonant and sol.max_power == t_power + 1
    assert sol.residual < expansion.RESIDUAL_LIMIT
    ref = _svd_reference(case, degree, t_power, a_nodes)
    for r, r_ref in zip(sol.coefficients, ref):
        scale = np.max(np.abs(r_ref))
        assert np.max(np.abs(r(nodes) - r_ref)) <= 1e-9 * scale


def test_resonant_solve_factors_once_and_forms_no_svd(conf6_orbit, monkeypatch):
    op = floquet.ModeOperator(conf6_orbit, 5.0)  # sigma = 1 mode, n = 6
    floquet.mode_datum(conf6_orbit, 0, 5.0, 0, with_factors=True)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    calls = []

    def counting_lu_factor(*args, **kwargs):
        calls.append(args[0].shape)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(expansion, "lu_factor", counting_lu_factor)
    forcing = lambda t: 1 + 0.2 * np.cos(2 * np.pi * t / conf6_orbit.period)
    sol = expansion.solve_resonant_mode(forcing, 1.0, op)
    assert sol.resonant and calls == [(257, 257)]  # the bordered matrix
    calls.clear()
    sol = expansion.solve_resonant_mode(forcing, 1.4, op, t_power=1)
    assert not sol.resonant and sol.max_power == 1
    assert calls == [(256, 256)]  # one LU for both cascade levels


@pytest.mark.parametrize("t_power", [0, 1])
def test_off_resonant_solve_leaves_the_kernel_factors_unsolved(conf6_orbit,
                                                              t_power):
    # only the resonant branch reads q+: off resonance the datum is
    # classified without factors, and the coefficients are bitwise those of
    # the same solve once the factors exist
    orbit = dataclasses.replace(conf6_orbit, _floquet={}, _windows={})
    op = floquet.ModeOperator(orbit, 5.0)  # sigma = 1 mode, n = 6
    forcing = lambda t: 1 + 0.2 * np.cos(2 * np.pi * t / orbit.period)
    bare = expansion.solve_resonant_mode(forcing, 1.4, op, t_power=t_power)
    assert not bare.resonant and orbit._floquet[5.0].q_plus is None
    floquet.spectrum(orbit, [5.0], with_factors=True)
    assert orbit._floquet[5.0].q_plus is not None
    again = expansion.solve_resonant_mode(forcing, 1.4, op, t_power=t_power)
    assert len(bare.coefficients) == len(again.coefficients) == t_power + 1
    for r, r_again in zip(bare.coefficients, again.coefficients):
        assert r._coeffs.tobytes() == r_again._coeffs.tobytes()
    assert bare.residual == again.residual


def test_resonant_solve_errors_are_typed_and_named(conf6_orbit, monkeypatch):
    op = floquet.ModeOperator(conf6_orbit, 5.0)
    ones = lambda t: np.ones_like(t)
    assert issubclass(expansion.ResonantSolveError, RuntimeError)

    class NanOperator(floquet.ModeOperator):
        def potential(self, t):
            return np.full_like(t, np.nan)

    for mu in (1.0, 1.4):  # resonant and not
        named = conf6_orbit.named(("lambda", 5.0), ("mu", mu))
        with pytest.raises(expansion.ResonantSolveError,
                           match=re.escape(f"non-finite collocation matrix "
                                           f"({named})")):
            expansion.solve_resonant_mode(ones, mu, NanOperator(conf6_orbit, 5.0))

    with monkeypatch.context() as m:
        m.setattr(expansion, "RESIDUAL_LIMIT", 0.0)
        named = conf6_orbit.named(("lambda", 5.0), ("mu", 1.0))
        with pytest.raises(expansion.ResonantSolveError,
                           match=r"residual .*" + re.escape(f"({named})")):
            expansion.solve_resonant_mode(ones, 1.0, op)

    def zero_pivot_lu(mat, **kwargs):
        return np.zeros_like(mat), np.arange(len(mat), dtype=np.int32)

    monkeypatch.setattr(expansion, "lu_factor", zero_pivot_lu)
    with pytest.raises(expansion.ResonantSolveError, match="singular"):
        expansion.solve_resonant_mode(ones, 1.0, op)


def test_resonant_solve_pseudo_inverse_branch(const5_orbit, monkeypatch):
    # mode 0 of the constant orbit is oscillatory, and at mu -> 0 its
    # collocation matrix is too ill-conditioned for the LU: the SVD
    # pseudo-inverse solves the cascade
    calls = []
    real = expansion._pinv_solver
    monkeypatch.setattr(expansion, "_pinv_solver",
                        lambda *usv: calls.append(1) or real(*usv))
    sol = expansion.solve_resonant_mode(lambda t: np.ones_like(t), 1e-8,
                                        floquet.ModeOperator(const5_orbit, 0.0))
    assert calls == [1]
    assert sol.oscillatory and not sol.resonant
    assert sol.residual <= expansion.RESIDUAL_LIMIT


def test_resonant_solve_refuses_nan_forcing(conf6_orbit):
    # a NaN in the forcing spreads to every coefficient; the residual keeps
    # it and the solve raises instead of returning NaN coefficients
    op = floquet.ModeOperator(conf6_orbit, 5.0)
    forcing = np.ones(expansion.COLLOCATION_SIZE)
    forcing[3] = np.nan
    for mu in (1.0, 1.4):  # resonant and not
        with pytest.raises(expansion.ResonantSolveError,
                           match=r"residual nan .*n = 6, .*lambda = 5"):
            expansion.solve_resonant_mode(forcing, mu, op)


# Reference for the single-cascade solve: the body it replaced, which
# wrote the t-power cascade out once per branch.  Error checks are left out;
# the comparison runs on cases that pass them.

def _cascade_reference(a_nodes, mu, op, t_power):
    orbit = op.orbit
    T = orbit.period
    num = expansion.COLLOCATION_SIZE
    nodes = np.arange(num) * (T / num)
    datum = floquet.spectrum(orbit, [op.lam], with_factors=True)[op.lam]
    resonant = (datum.type == floquet.TYPE_III
                and abs(mu - datum.sigma) <= expansion.RESONANCE_TOL)
    oscillatory = datum.type != floquet.TYPE_III
    d1_mult = expansion._diff_multiplier(num, T, 1)
    a_mat = expansion._circulant(-expansion._diff_multiplier(num, T, 2)
                                 + 2.0 * mu * d1_mult)
    a_mat[np.diag_indices(num)] += op.potential(nodes) - mu * mu

    def d1(x):
        return np.real(np.fft.ifft(d1_mult * np.fft.fft(x)))

    def factor(mat):
        lu_piv = lu_factor(mat, check_finite=False)
        return lambda b, trans=0: lu_solve(lu_piv, b, trans=trans,
                                           check_finite=False)

    def cascade_rhs(k, r_next, r_next2):
        rhs = a_nodes if k == t_power else np.zeros(num)
        if r_next is not None:
            rhs = rhs - (k + 1) * (-2.0 * d1(r_next) + 2.0 * mu * r_next)
        if r_next2 is not None:
            rhs = rhs + (k + 1) * (k + 2) * r_next2
        return rhs

    if not resonant:
        rs = [None] * (t_power + 1)
        if oscillatory and np.linalg.cond(a_mat) > 1e12:
            solve = expansion._pinv_solver(*np.linalg.svd(a_mat))
        else:
            solve = factor(a_mat)
        for k in range(t_power, -1, -1):
            r_next = rs[k + 1] if k + 1 <= t_power else None
            r_next2 = rs[k + 2] if k + 2 <= t_power else None
            rs[k] = solve(cascade_rhs(k, r_next, r_next2))
        max_power = t_power
    else:
        max_power = t_power + 1
        q_plus = datum.q_plus(nodes)
        q_minus = np.roll(q_plus[::-1], 1)
        bordered = np.zeros((num + 1, num + 1))
        bordered[:num, :num] = a_mat
        bordered[:num, num] = q_minus / np.linalg.norm(q_minus)
        bordered[num, :num] = q_plus / np.linalg.norm(q_plus)
        border_solve = factor(bordered)
        unit = np.zeros(num + 1)
        unit[num] = 1.0
        qk = border_solve(unit)[:num]
        qk /= np.linalg.norm(qk)
        w_null = border_solve(unit, trans=1)[:num]
        w_null /= np.linalg.norm(w_null)
        gvec = -2.0 * d1(qk) + 2.0 * mu * qk
        denom = float(w_null @ gvec)
        rs = [None] * (max_power + 1)
        rs[max_power] = np.zeros(num)
        for k in range(max_power - 1, -1, -1):
            r_next2 = rs[k + 2] if k + 2 <= max_power else None
            base = cascade_rhs(k, rs[k + 1], r_next2)
            gamma = float(w_null @ base) / ((k + 1) * denom)
            rs[k + 1] = rs[k + 1] + gamma * qk
            rhs = base - gamma * (k + 1) * gvec
            sol = border_solve(np.append(rhs, 0.0))[:num]
            rs[k] = sol - (qk @ sol) * qk

    scale = max(1.0, float(np.max(np.abs(a_nodes))))
    res = 0.0
    full = rs + [np.zeros(num), np.zeros(num)]
    for k in range(max_power + 1):
        target = a_nodes if k == t_power else np.zeros(num)
        lhs = a_mat @ full[k]
        if k + 1 <= max_power:
            lhs = lhs + (k + 1) * (-2.0 * d1(full[k + 1])
                                   + 2.0 * mu * full[k + 1])
        if k + 2 <= max_power:
            lhs = lhs - (k + 1) * (k + 2) * full[k + 2]
        res = max(res, float(np.max(np.abs(lhs - target))))
    res /= scale
    return expansion.ResonantSolution(
        mu=mu, coefficients=[PeriodicFunction(r, T) for r in rs],
        max_power=max_power, resonant=resonant, residual=res,
        oscillatory=oscillatory)


# (degree, t-power, mu) per case: mu None is the degree's exponent, "off"
# 0.4 above it.  Mode 0 is solved by LU, except on the constant orbit, where
# mu = 1e-8 leaves the collocation matrix near-singular and the
# pseudo-inverse takes over.
CASCADE_CASES = [(1, 0, None), (1, 1, None), (1, 0, "off"), (1, 1, "off"),
                 (1, 2, "off"), (0, 0, 0.8)]


@pytest.mark.parametrize("degree, t_power, mu", CASCADE_CASES)
@pytest.mark.parametrize("orbit_name", ["conf3_orbit", "conf5_orbit",
                                        "conf6_orbit", "const5_orbit"])
def test_resonant_solve_matches_cascade_reference(orbit_name, degree, t_power,
                                                  mu, request):
    orbit = request.getfixturevalue(orbit_name)
    lam = float(spheres.eigenvalue(degree, orbit.params.n))
    op = floquet.ModeOperator(orbit, lam)
    T = orbit.period
    nodes = np.arange(expansion.COLLOCATION_SIZE) * (
        T / expansion.COLLOCATION_SIZE)
    first = 0.3 * np.cos(2 * np.pi * nodes / T)
    if degree == 0 and orbit_name == "const5_orbit":
        # the first harmonic spans that near-kernel: no periodic solution
        mu, first = 1e-8, 0.0
    elif mu is None or mu == "off":
        sigma = floquet.mode_datum(orbit, 0, lam, degree).sigma
        mu = sigma if mu is None else sigma + 0.4
    a_nodes = 1 + first + 0.1 * np.sin(4 * np.pi * nodes / T)
    sol = expansion.solve_resonant_mode(a_nodes, mu, op, t_power=t_power)
    ref = _cascade_reference(a_nodes, mu, op, t_power)
    assert (sol.max_power, sol.resonant, sol.oscillatory) == (
        ref.max_power, ref.resonant, ref.oscillatory)
    assert len(sol.coefficients) == len(ref.coefficients)
    for r, r_ref in zip(sol.coefficients, ref.coefficients):
        assert r._coeffs.tobytes() == r_ref._coeffs.tobytes()
    # the residuals sum the same terms in another order: they agree to
    # 1e-15 of the coefficients' size (up to 74 at t-power 2)
    size = max(float(np.max(np.abs(r(nodes)))) for r in ref.coefficients)
    assert abs(sol.residual - ref.residual) <= 1e-15 * max(1.0, size)
