import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline

from fowlerlab import cylinder, expansion, floquet, fowler, spheres


@pytest.fixture(scope="module")
def grid():
    return cylinder.make_grid(5.0, 12.0, 1.0 / 64.0)


def test_make_grid_spacing():
    g = cylinder.make_grid(4.0, 8.0, 0.25)
    assert g[0] == 4.0 and g[-1] == 12.0
    assert_allclose(np.diff(g), 0.25)


def test_field_evaluation_and_norms(grid):
    params = fowler.FowlerParams.conformal(5, 1.0)
    modes = (spheres.HarmonicMode(0, 5), spheres.HarmonicMode(1, 5))
    coeffs = np.vstack([np.ones_like(grid), np.exp(-grid)])
    f = cylinder.CylinderField(t=grid, modes=modes, coeffs=coeffs,
                               params=params)
    vals = f.evaluate(np.array([1.0]))
    assert_allclose(vals[:, 0], 1.0 + np.exp(-grid))
    assert_allclose(f.sup_theta(), 1.0 + np.exp(-grid), rtol=1e-12)


def test_second_derivative_fourth_order():
    for h in (0.02, 0.01):
        t = np.arange(0.0, 3.0 + h / 2, h)
        err = np.max(np.abs(cylinder.second_derivative(np.sin(t), h)
                            + np.sin(t)))
        if h == 0.02:
            err_coarse = err
    assert err_coarse / err == pytest.approx(16.0, rel=0.4)


def test_degree1_mode_under_laplace_beltrami(grid):
    # the discrete Laplace-Beltrami action on the degree-1 zonal mode is
    # exactly multiplication by -(n-1): the linear part of the residual
    # applies lambda_1 = n - 1 per mode
    n = 5
    params = fowler.FowlerParams.conformal(n, 1.0)
    modes = (spheres.HarmonicMode(0, n), spheres.HarmonicMode(1, n))
    coeffs = np.vstack([np.zeros_like(grid), np.ones_like(grid)])
    f = cylinder.CylinderField(t=grid, modes=modes, coeffs=coeffs,
                               params=params)
    proj = cylinder.ZonalProjector(n, modes)
    vals = f.evaluate(proj.s)
    # -Delta_theta f = lambda_1 f for the pure degree-1 field
    projected = proj.project(vals * float(spheres.eigenvalue(1, n)))
    assert_allclose(projected[1], (n - 1) * np.ones_like(grid), rtol=1e-12)
    assert np.max(np.abs(projected[0])) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 8])
def test_projector_rule_is_sized_from_the_top_degree(n):
    for top in range(7):
        modes = tuple(spheres.HarmonicMode(k, n) for k in range(top + 1))
        proj = cylinder.ZonalProjector(n, modes)
        assert proj.s.size == proj.w.size == 8 * (top + 1)
        # the memoized rule: every projector of that size shares its arrays
        again = cylinder.ZonalProjector(n, modes[::-1])
        nodes, weights = spheres.quadrature(n, 8 * (top + 1))
        assert again.s is proj.s is nodes and again.w is proj.w is weights


def _reference_projection(n, modes, values, num=160):
    """Projection onto `modes` with a `num`-node Gauss-Jacobi rule."""
    s, w = spheres.quadrature(n, num)
    basis = np.array([spheres.eval_zonal(m, s) for m in modes])
    return (basis * w) @ values(s).T / (basis**2 @ w)[:, None]


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("top", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.8])
def test_projector_rule_resolves_the_conformal_nonlinearity(n, top, ratio):
    # (xi + phi)^e with phi / xi = ratio Z_top(s), whose largest size is
    # `ratio` (|Z_k| <= 1, the value at the pole), against a 160-node rule
    e = (n + 2) / (n - 2)
    xi = np.array([0.3, 1.0, 2.5])
    z_top = spheres.HarmonicMode(top, n)
    modes = tuple(spheres.HarmonicMode(k, n) for k in range(top + 1))

    def values(s):
        return (xi[:, None] * (1.0 + ratio * spheres.eval_zonal(z_top, s))) ** e

    proj = cylinder.ZonalProjector(n, modes)
    got = proj.project(values(proj.s))
    ref = _reference_projection(n, modes, values)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["readme", "degree4_forcing", "ckn"])
def test_construction_agrees_with_a_64_node_projector(case, conf5_orbit,
                                                      ckn_orbit, monkeypatch):
    if case == "ckn":
        def run():
            w, _, trace = cylinder.ckn_construct(ckn_orbit, 2.4)
            return w, trace
    else:
        # a degree-4 forcing on degrees 0..2 reaches them only through
        # the nonlinearity, so its projection aliases first
        comps = ((1, 0.05, 1.5),) + (((4, 0.2, 1.5),)
                                     if case == "degree4_forcing" else ())
        prof = cylinder.ForcingProfile(k0=1.0, components=comps)

        def run():
            return cylinder.contraction_construct(conf5_orbit, prof,
                                                  max_degree=2)
    v, trace = run()
    real = spheres.quadrature
    monkeypatch.setattr(spheres, "quadrature", lambda n, num: real(n, 64))
    v64, trace64 = run()
    assert trace.iterations == trace64.iterations
    weight = np.exp(trace64.nu * v64.t)
    gap = np.max(weight * np.sum(np.abs(v.coeffs - v64.coeffs), axis=0))
    assert gap <= 1e-12 * trace64.norms[-1]


def test_residual_of_exact_solutions_refines_at_fourth_order():
    params = fowler.FowlerParams.conformal(5, 1.0)
    orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params),
                                params, tol=1e-12)
    prof = cylinder.ForcingProfile(k0=1.0)
    sups = {}
    for h in (1 / 32, 1 / 64):
        g = cylinder.make_grid(5.0, 12.0, h)
        r = cylinder.residual_M(cylinder.orbit_field(orb, g), prof)
        assert r.meta["one_sided_rows"] == [0, 1, g.size - 2, g.size - 1]
        sups[h] = np.max(np.abs(r.coeffs[:, 2:-2]))
    ratio = sups[1 / 32] / sups[1 / 64]
    assert 14.0 <= ratio <= 18.0


def test_residual_of_translate_refines_at_fourth_order():
    params = fowler.FowlerParams.conformal(5, 1.0)
    orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params),
                                params, tol=1e-12)
    prof = cylinder.ForcingProfile(k0=1.0)
    modes = tuple(spheres.HarmonicMode(k, 5) for k in range(4))
    sups = {}
    for h in (1 / 32, 1 / 64):
        g = cylinder.make_grid(6.0, 12.0, h)
        proj = cylinder.ZonalProjector(5, modes)
        vals = np.array([expansion.translate_zonal(orb, 0.15, g, s)
                         for s in proj.s]).T
        fld = cylinder.CylinderField(t=g, modes=modes,
                                     coeffs=proj.project(vals), params=params)
        sups[h] = np.max(np.abs(cylinder.residual_M(fld, prof).coeffs[:, 2:-2]))
    assert 14.0 <= sups[1 / 32] / sups[1 / 64] <= 18.0


def test_residual_N_constant_solution_exact(grid):
    params = fowler.FowlerParams.ckn(5, 0.0, 0.0)
    orb = fowler.constant_orbit(params)
    r = cylinder.residual_N(cylinder.orbit_field(orb, grid))
    assert np.max(np.abs(r.coeffs)) < 1e-11


def test_residual_with_first_order_term_decays_quadratically():
    # f = xi + xi_1 kills the O(e^{-t}) residual, leaving the quadratic
    # remainder ~ e^{-2t}.  The base orbit's own finite-difference floor is
    # t-uniform and would bury the tail of the signal, so it is subtracted.
    params = fowler.FowlerParams.conformal(5, 1.0)
    orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params),
                                params, tol=1e-12)
    prof = cylinder.ForcingProfile(k0=1.0)
    g = cylinder.make_grid(5.0, 11.0, 1 / 64)
    base = cylinder.orbit_field(orb, g, max_degree=2)
    base_res = cylinder.residual_M(base, prof)
    f = cylinder.orbit_field(orb, g, max_degree=2)
    f.coeffs[1] += 0.5 * np.exp(-g) * ((5 - 2) / 2 * orb.value(g)
                                       - orb.derivative(g))
    r = cylinder.residual_M(f, prof)
    sup = np.max(np.abs(r.coeffs[:, 2:-2] - base_res.coeffs[:, 2:-2]), axis=0)
    tt = g[2:-2]
    mask = sup > 1e-12
    slope = -np.polyfit(tt[mask], np.log(sup[mask]), 1)[0]
    assert abs(slope - 2.0) < 0.15


def test_residual_kernel_direction_is_second_order(ckn_orbit):
    # zeta + delta e^{-sigma t} q+ Z_1 annihilates the linearized operator:
    # the residual stays at the unperturbed O(h^4) floor plus O(delta^2),
    # while a non-kernel perturbation of the same size jumps by its O(delta)
    # linear response
    orb = ckn_orbit
    d1 = floquet.mode_datum(orb, 1, float(spheres.eigenvalue(1, 5)), 1,
                            with_factors=True)
    g = cylinder.make_grid(5.0, 12.0, 1 / 64)
    delta = 1e-3
    floor = np.max(np.abs(
        cylinder.residual_N(cylinder.orbit_field(orb, g, 2)).coeffs[:, 2:-2]))

    f = cylinder.orbit_field(orb, g, max_degree=2)
    f.coeffs[1] += delta * np.exp(-d1.sigma * g) * d1.q_plus(g)
    res_kernel = np.max(np.abs(cylinder.residual_N(f).coeffs[:, 2:-2]))

    f2 = cylinder.orbit_field(orb, g, max_degree=2)
    f2.coeffs[1] += delta * np.exp(-0.6 * d1.sigma * g) * d1.q_plus(g)
    res_other = np.max(np.abs(cylinder.residual_N(f2).coeffs[:, 2:-2]))

    assert res_kernel < 2.0 * floor + 10.0 * delta**2
    assert res_other > 10.0 * res_kernel


def test_residual_rejects_nonpositive_field(grid):
    params = fowler.FowlerParams.conformal(5, 1.0)
    modes = (spheres.HarmonicMode(0, 5),)
    f = cylinder.CylinderField(t=grid, modes=modes,
                               coeffs=-np.ones((1, grid.size)), params=params)
    with pytest.raises(cylinder.PositivityError):
        cylinder.residual_M(f, cylinder.ForcingProfile(k0=1.0))


def test_forcing_profile_validation_and_flatness():
    with pytest.raises(ValueError):
        cylinder.ForcingProfile(k0=-1.0)
    with pytest.raises(ValueError):
        cylinder.ForcingProfile(k0=1.0, components=((1, 0.1, 0.5),))
    prof = cylinder.ForcingProfile(k0=2.0, components=((1, 0.1, 1.5),))
    assert not prof.is_flat and prof.min_rate == 1.5
    with pytest.raises(cylinder.PositivityError):
        big = cylinder.ForcingProfile(k0=1.0, components=((1, 40.0, 1.5),))
        big.evaluate(np.array([0.0]), np.array([-1.0]), 5)


def _inverse(op, rhs, nu, tgrid, return_info=False):
    """The bounded inverse of a mode operator on a window, through the
    window's cached context."""
    return cylinder._context_cache(op.orbit, op.lam, tgrid).solve(
        rhs, nu, return_info=return_info)


def test_inverse_constant_coefficient_closed_form(grid, const5_orbit):
    params = const5_orbit.params
    beta = 1.6
    rhs = np.exp(-beta * grid)
    # from-the-right branch (sigma = 1 < beta)
    op1 = floquet.ModeOperator(const5_orbit, 4.0)
    phi = _inverse(op1, rhs, beta, grid)
    pred = rhs / (4.0 + params.q * (1 - params.e) - beta**2)
    assert np.max(np.abs(phi - pred)) < 5e-8 * np.max(np.abs(pred))
    # causal branch (sigma = sqrt 7 > beta): equal up to the decaying kernel
    # element, which is the admissible gauge there
    op2 = floquet.ModeOperator(const5_orbit, 10.0)
    phi2 = _inverse(op2, rhs, beta, grid)
    pred2 = rhs / (10.0 + params.q * (1 - params.e) - beta**2)
    base = np.exp(-math.sqrt(7.0) * (grid - grid[0]))
    resid = phi2 - pred2
    alpha = (base @ resid) / (base @ base)
    assert np.max(np.abs(resid - alpha * base)) < 1e-10


def test_inverse_round_trip_weighted(grid, conf5_orbit):
    # analytic rhs for g0 = e^{-beta t}(1 + 0.2 cos(2 pi t / T)); recovery in
    # the weighted norm at 1e-7 across hyperbolic and mode-0 operators
    orb = conf5_orbit
    beta = 1.6
    T = orb.period
    w = 2 * np.pi / T
    f1 = np.exp(-beta * grid)
    c1 = 1 + 0.2 * np.cos(w * grid)
    g0 = f1 * c1
    g0pp = (beta**2 * f1 * c1 + 2 * (-beta * f1) * (-0.2 * w * np.sin(w * grid))
            + f1 * (-0.2 * w * w * np.cos(w * grid)))
    wn = np.exp(beta * grid)
    for lam in (0.0, 4.0, 10.0):
        op = floquet.ModeOperator(orb, lam)
        rhs = -g0pp + op.potential(grid) * g0
        phi = _inverse(op, rhs, beta, grid)
        if lam == 10.0:
            # causal branch: project out the admissible decaying kernel part
            d = floquet.mode_datum(orb, 6, 10.0, 2, with_factors=True)
            base = np.exp(-d.sigma * (grid - grid[0])) * d.q_plus(grid)
            resid = phi - g0
            alpha = (base @ resid) / (base @ base)
            phi = phi - alpha * base
        assert np.max(wn * np.abs(phi - g0)) < 1e-7, lam


def test_inverse_linearity(grid, conf5_orbit):
    op = floquet.ModeOperator(conf5_orbit, 4.0)
    rng = np.random.default_rng(5)
    smooth = np.exp(-1.7 * grid) * (1 + 0.3 * np.sin(grid))
    other = np.exp(-1.9 * grid) * (1 + 0.2 * np.cos(grid))
    a, b = 1.3, -0.7
    lhs = _inverse(op, a * smooth + b * other, 1.7, grid)
    rhs = (a * _inverse(op, smooth, 1.7, grid)
           + b * _inverse(op, other, 1.7, grid))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


def test_inverse_resonance_error(grid, conf5_orbit):
    op = floquet.ModeOperator(conf5_orbit, 4.0)  # sigma = 1
    rhs = np.exp(-grid)
    with pytest.raises(cylinder.ResonanceError):
        _inverse(op, rhs, 1.0 + 1e-9, grid)


def test_inverse_bound_constant_window_uniform(conf5_orbit):
    # the measured stability constant must not grow with the window length
    orb = conf5_orbit
    op = floquet.ModeOperator(orb, 4.0)
    beta = 1.5
    consts = []
    for window in (8.0, 14.0):
        g = cylinder.make_grid(5.0, window, 1 / 64)
        rhs = np.exp(-beta * g) * (1 + 0.3 * np.cos(2 * np.pi * g / orb.period))
        _, info = _inverse(op, rhs, beta, g, return_info=True)
        consts.append(info["bound_constant"])
    assert consts[1] < 2.0 * consts[0]


def test_inverse_rejects_nonuniform_grid(grid, conf5_orbit):
    # same endpoints and size as the uniform window, so the same cache key
    x = np.linspace(0.0, 1.0, grid.size)
    stretched = grid[0] + (grid[-1] - grid[0]) * (x + 0.02 * np.sin(np.pi * x))
    stretched[-1] = grid[-1]
    rhs = np.exp(-1.6 * stretched)
    op = floquet.ModeOperator(conf5_orbit, 4.0)
    _inverse(op, np.exp(-1.6 * grid), 1.6, grid)
    with pytest.raises(ValueError, match="uniform grid"):  # cached path
        _inverse(op, rhs, 1.6, stretched)
    with pytest.raises(ValueError, match="uniform grid"):  # fresh path
        _inverse(op, rhs[:-1], 1.6, stretched[:-1])
    with pytest.raises(ValueError, match="uniform grid"):
        cylinder.ModeSolveContext(conf5_orbit, 4.0, stretched)


@pytest.mark.parametrize("fills_window", [False, True])
def test_last_period_integral_against_quad(conf5_orbit, fills_window):
    # int_{T-P}^{T} read off the from-the-right sums beats a cubic spline
    # over the window samples by at least ten times, also when T - P falls
    # in the first grid interval (the left-edge stencil of the sums)
    orb = conf5_orbit
    h = cylinder.DEFAULT_H
    if fills_window:
        g = 5.0 + h * np.arange(math.ceil(orb.period / h) + 1)
    else:
        g = cylinder.make_grid()
    ctx = cylinder.ModeSolveContext(orb, 4.0, g)
    assert (ctx.last_period_rule[:2] == (1, 0)) == fills_window
    a, b = g[-1] - orb.period, g[-1]
    for f in (lambda t: np.exp(-1.2 * t) * np.cos(3.0 * t),
              lambda t: np.exp(-2.5 * t) * orb.value(t),
              lambda t: np.exp(-4.0 * t) * np.sin(7.0 * t)):
        y = f(g)
        ref = quad(lambda t: float(f(np.array(t))), a, b, epsabs=0.0,
                   epsrel=1e-13, limit=200)[0]
        new = ctx._last_period(y, cylinder._cum_from_right(y, h))
        spline = CubicSpline(g, y).integrate(a, b)
        assert abs(new - ref) <= 0.1 * abs(spline - ref)
        assert abs(new - ref) < 2e-8 * abs(ref)


def test_partial_interval_rule_exact_for_quintics():
    # every start position, both edges included, integrates a quintic exactly
    h = 0.1
    t = h * np.arange(12)
    coef = np.array([0.3, -1.2, 0.7, 0.25, -0.4, 0.05])
    y = np.polyval(coef[::-1], t)
    antider = np.polyval(np.polyint(coef[::-1]), t)
    cum = cylinder._cum_from_right(y, h)
    assert_allclose(cum, antider[-1] - antider, rtol=0, atol=1e-11)
    for start in np.linspace(0.0, 10.75, 44):
        k, first, w = cylinder._partial_interval_rule(t.size, start)
        assert 0 <= first <= t.size - 6 and 1 <= k <= t.size - 1
        a = start * h
        exact = antider[-1] - np.polyval(np.polyint(coef[::-1]), a)
        assert cum[k] + h * (w @ y[first:first + 6]) == pytest.approx(
            exact, abs=1e-11)


@pytest.mark.parametrize("num", [6, 7])
def test_cumulative_sums_exact_for_quintics_on_short_grids(num):
    # the 6-point rules need no more points than a uniform grid must have
    h = 0.1
    t = 0.3 + h * np.arange(num)
    coef = np.array([0.3, -1.2, 0.7, 0.25, -0.4, 0.05])[::-1]
    antider = np.polyval(np.polyint(coef), t)
    assert_allclose(cylinder._cum_from_left(np.polyval(coef, t), h),
                    antider - antider[0], rtol=0, atol=1e-15)


def test_interval_increments_match_the_sliding_window_form():
    # the correlation sums the same six products as the window matmul did
    g = cylinder.make_grid()
    y = np.exp(-1.3 * g) * np.cos(5.0 * g)
    windows = np.lib.stride_tricks.sliding_window_view(y, 6)[:g.size - 5]
    got = cylinder._interval_increments(y, 1.0)[2:g.size - 3]
    bound = 6 * np.finfo(float).eps * (np.abs(windows)
                                        @ np.abs(cylinder._INT_CENTER))
    assert np.all(np.abs(got - windows @ cylinder._INT_CENTER) <= bound)


def test_stencil_weights_match_the_derivative_and_quadrature_rules():
    # the moment solve reproduces, bit for bit, the rules as first derived
    def old_rule(offsets, moments):
        offsets = np.asarray(offsets, dtype=float)
        return np.linalg.solve(np.vander(offsets, increasing=True).T, moments)

    d2 = np.zeros(6)
    d2[2] = math.factorial(2)
    k = np.arange(6) + 1.0
    unit = (1.0**k - 0.0**k) / k
    for got, offsets, moments in (
            (cylinder._D2_EDGE0, range(6), d2),
            (cylinder._D2_EDGE1, range(-1, 5), d2),
            (cylinder._INT_CENTER, range(-2, 4), unit),
            (cylinder._INT_LEFT0, range(0, 6), unit),
            (cylinder._INT_LEFT1, range(-1, 5), unit),
            (cylinder._INT_RIGHT1, range(-3, 3), unit),
            (cylinder._INT_RIGHT0, range(-4, 2), unit)):
        assert np.array_equal(got, old_rule(offsets, moments))
    for start in (0.0, 0.375, 1.5, 9.25):
        _, first, w = cylinder._partial_interval_rule(12, start)
        j = min(int(start), 10)
        a = start - j
        ref = old_rule(range(first - j, first - j + 6), (1.0**k - a**k) / k)
        assert np.array_equal(w, ref)


def _power_remainder_where(exponent, base, delta):
    """Reference: both branches everywhere, then np.where."""
    x = delta / base
    c2 = exponent * (exponent - 1.0) / 2.0
    series = (base**exponent * c2 * x * x
              * (1.0 + (exponent - 2.0) * x / 3.0
                 + (exponent - 2.0) * (exponent - 3.0) * x * x / 12.0))
    direct = ((base + delta) ** exponent - base**exponent
              - exponent * base ** (exponent - 1.0) * delta)
    return np.where(np.abs(x) < 1e-3, series, direct)


@pytest.mark.parametrize("base_cols", [1, 64])
@pytest.mark.parametrize("exponent", [7.0 / 3.0, 33.0 / 17.0])
def test_power_remainder_matches_the_where_form(grid, base_cols, exponent):
    rng = np.random.default_rng(11)
    base = (0.5 + 0.3 * np.cos(grid))[:, None] * (
        1.0 + 0.1 * rng.random((1, base_cols)))
    ratio = (rng.choice([-1.0, 1.0], (grid.size, 64))
             * 10.0 ** rng.uniform(-8.0, -1.0, (grid.size, 64)))
    ratio[0, :2] = [1e-3, -1e-3]
    delta = base * ratio
    x = delta / base
    assert np.any(np.abs(x) < 1e-3) and np.any(np.abs(x) >= 1e-3)
    got = cylinder._power_remainder(exponent, base, delta)
    assert got.shape == (grid.size, 64)
    assert np.array_equal(got, _power_remainder_where(exponent, base, delta))


def test_construction_window_keeps_its_orbit_samples(monkeypatch):
    params = fowler.FowlerParams.conformal(5, 1.0)
    orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params), params)
    prof = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
    v, _ = cylinder.contraction_construct(orb, prof)
    calls = []
    real = fowler.FowlerOrbit.value
    monkeypatch.setattr(fowler.FowlerOrbit, "value",
                        lambda self, t: calls.append(np.size(t)) or real(self, t))
    # a warm construction and the orbit on its window evaluate nothing
    v2, _ = cylinder.contraction_construct(orb, prof)
    ref = cylinder.orbit_field(orb, v.t.copy())
    assert calls == []
    assert np.array_equal(v2.coeffs, v.coeffs)
    assert np.array_equal(ref.coeffs[0], real(orb, v.t))
    # a grid that is not the window exactly is evaluated as given
    other = np.linspace(v.t[0], v.t[-1], v.t.size)
    other[1] += 1e-9
    assert np.array_equal(cylinder.orbit_field(orb, other).coeffs[0],
                          real(orb, other))
    assert calls == [v.t.size]
    samples = cylinder._orbit_samples(orb, v.t)
    with pytest.raises(ValueError):
        samples[0] = 0.0


def test_decay_rate_fit_synthetic():
    t = np.linspace(5.0, 12.0, 150)
    fit = cylinder.decay_rate_fit((t, np.exp(-2.0 * t)))
    assert not fit.log_corrected
    assert fit.slope == pytest.approx(2.0, abs=1e-10)
    fit2 = cylinder.decay_rate_fit((t, t * np.exp(-t)))
    assert fit2.log_corrected
    assert fit2.slope == pytest.approx(1.0, abs=0.02)


def test_decay_rate_fit_planted_trials():
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(100):
        gamma = rng.uniform(0.5, 3.0)
        logt = bool(rng.integers(0, 2))
        t = np.linspace(4.0, 11.0, 120)
        vals = (t if logt else 1.0) * np.exp(-gamma * t)
        fit = cylinder.decay_rate_fit((t, vals))
        ok = fit.log_corrected == logt and abs(fit.slope / gamma - 1) < 0.01
        hits += ok
    assert hits == 100


def test_decay_rate_fit_underflow_window_shrinks():
    t = np.linspace(0.0, 40.0, 400)
    vals = np.exp(-2.0 * t)
    fit = cylinder.decay_rate_fit((t, vals))
    assert fit.warning is not None and "shrunk" in fit.warning
    assert fit.slope == pytest.approx(2.0, abs=1e-6)


def test_contraction_flat_profile_returns_orbit(conf5_orbit):
    prof = cylinder.ForcingProfile(k0=1.0)
    v, trace = cylinder.contraction_construct(conf5_orbit, prof)
    assert trace.iterations == 1
    ref = cylinder.orbit_field(conf5_orbit, v.t)
    assert np.max(np.abs(v.coeffs - ref.coeffs)) < 1e-12


def test_contraction_slope_and_stability(conf5_orbit):
    orb = conf5_orbit
    prof = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
    v, trace = cylinder.contraction_construct(orb, prof, tol=1e-9)
    assert trace.converged and trace.escalations == 0
    # trace contraction factors stay below 1 once contracting
    assert all(f < 1.0 for f in trace.factors[:2])
    diff = v.combination(cylinder.orbit_field(orb, v.t), 1.0, -1.0)
    lo = v.t[0] + 0.5
    hi = lo + 2 * orb.period
    fit = cylinder.decay_rate_fit(diff, t_window=(lo, hi))
    assert abs(fit.slope_plain / 1.5 - 1.0) < 0.05
    # insensitive to extra iterations beyond convergence
    v2, _ = cylinder.contraction_construct(orb, prof, tol=1e-9, max_iter=25)
    assert np.max(np.abs(v2.coeffs - v.coeffs)) < 1e-8


def test_contraction_mode_truncation_consistency(conf5_orbit):
    orb = conf5_orbit
    prof = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
    v2, _ = cylinder.contraction_construct(orb, prof, max_degree=2, tol=1e-9)
    v4, _ = cylinder.contraction_construct(orb, prof, max_degree=4, tol=1e-9)
    s = np.linspace(-1, 1, 101)
    dev = np.max(np.abs(v2.evaluate(s) - v4.evaluate(s)))
    assert dev < 1e-5  # 10 x the iteration tolerance class


def test_ckn_construct_gates(ckn_orbit):
    with pytest.raises(ValueError, match="exceed sigma_1"):
        cylinder.ckn_construct(ckn_orbit, 0.5)
    with pytest.raises(ValueError, match="degree 3 outside"):
        cylinder.ckn_construct(ckn_orbit, 2.4, degree=3, max_degree=2)
    data = floquet.exponent_sequence(ckn_orbit, 6)
    with pytest.raises(cylinder.ResonanceError):
        cylinder.ckn_construct(ckn_orbit, 2.0 * data[0].sigma)


def test_ckn_construct_decay(ckn_orbit):
    w, w_hat, trace = cylinder.ckn_construct(ckn_orbit, 2.4)
    assert trace.converged and trace.escalations == 0
    diff = w.combination(w_hat, 1.0, -1.0)
    lo = w.t[0] + 0.5
    fit = cylinder.decay_rate_fit(diff, t_window=(lo, lo + 2 * ckn_orbit.period))
    assert abs(fit.slope_plain / 2.4 - 1.0) < 0.05


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_construction_batches_its_floquet_setup(kind, monkeypatch):
    # on a fresh orbit: the exponent batch, then one monodromy batch for the
    # eigenvalues it did not cover and one kernel batch for every Type III
    # mode of the window
    calls = []

    def recorded(name, real):
        def run(ops, *args, **kwargs):
            calls.append((name, [op.lam for op in ops]))
            return real(ops, *args, **kwargs)
        return run

    monkeypatch.setattr(floquet, "monodromy",
                        recorded("monodromy", floquet.monodromy))
    monkeypatch.setattr(floquet, "kernel_basis",
                        recorded("kernel", floquet.kernel_basis))
    if kind == "conformal":
        params = fowler.FowlerParams.conformal(5, 1.0)
        orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params),
                                    params)
        prof = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
        cylinder.contraction_construct(orb, prof)
        exponents = [4.0, 10.0, 18.0]
    else:
        params = fowler.FowlerParams.ckn(5, 0.5, 0.7)
        orb = fowler.periodic_orbit(0.4 * fowler.constant_solution(params),
                                    params)
        cylinder.ckn_construct(orb, 2.4)
        exponents = [4.0, 10.0, 18.0, 28.0, 40.0]
    assert calls == [("monodromy", exponents), ("monodromy", [0.0]),
                     ("kernel", [4.0, 10.0])]


def _fresh_orbit(kind):
    if kind == "conformal":
        params = fowler.FowlerParams.conformal(5, 1.0)
        return fowler.periodic_orbit(0.5 * fowler.constant_solution(params),
                                     params)
    params = fowler.FowlerParams.ckn(5, 0.5, 0.7)
    return fowler.periodic_orbit(0.4 * fowler.constant_solution(params),
                                 params)


def _record_solve_ivp(monkeypatch, calls):
    for mod in (fowler, floquet, cylinder):
        real = mod.solve_ivp
        monkeypatch.setattr(mod, "solve_ivp",
                            lambda *a, real=real, **k: calls.append("ivp")
                            or real(*a, **k))


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_warm_construction_reads_its_stores_only(kind, conf5_orbit, ckn_orbit,
                                                 monkeypatch):
    # a second construction on the same orbit copies no Floquet datum,
    # expands no mode sequence and integrates nothing
    if kind == "conformal":
        prof = cylinder.ForcingProfile(k0=1.0, components=((2, 0.05, 2.3),))
        call = lambda: cylinder.contraction_construct(conf5_orbit, prof)
    else:
        call = lambda: cylinder.ckn_construct(ckn_orbit, 2.6)
    first = call()
    calls = []
    for name in ("exponent_sequence", "mode_datum"):
        real = getattr(floquet, name)
        monkeypatch.setattr(floquet, name,
                            lambda *a, real=real, name=name, **k:
                            calls.append(name) or real(*a, **k))
    _record_solve_ivp(monkeypatch, calls)
    again = call()
    assert calls == []
    assert np.array_equal(again[0].coeffs, first[0].coeffs)


@pytest.mark.parametrize("kind, top", [("conformal", 3), ("ckn", 5)])
def test_degree_exponents_are_the_distinct_mode_exponents(kind, top):
    # degrees 1..top on one fresh orbit, the mode sequence through the first
    # mode of degree top on another: the same batch, so the same numbers
    sigmas = cylinder._degree_exponents(_fresh_orbit(kind), top)
    count = spheres.index_of_last_degree(5, top - 1) + 1
    data = floquet.exponent_sequence(_fresh_orbit(kind), count)
    assert sigmas == sorted({d.sigma for d in data})
    assert [d.degree for d in data][-1] == top


def test_ckn_construct_checks_degree_before_integrating(monkeypatch):
    orb = _fresh_orbit("ckn")
    calls = []
    _record_solve_ivp(monkeypatch, calls)
    with pytest.raises(ValueError, match="degree 3 outside"):
        cylinder.ckn_construct(orb, 2.4, degree=3, max_degree=2)
    assert calls == [] and orb._floquet == {}


def test_fundamental_pair_failure_names_the_parameters(grid, conf5_orbit,
                                                       monkeypatch):
    monkeypatch.setattr(cylinder, "solve_ivp",
                        lambda *a, **k: SimpleNamespace(success=False))
    with pytest.raises(fowler.IntegrationError,
                       match=r"fundamental pair.*\(n = 5, eps = .*, "
                             r"lambda = 0\.0\)"):
        cylinder.ModeSolveContext(conf5_orbit, 0.0, grid)


def test_degenerate_kernel_pair_names_the_parameters(grid, conf5_orbit,
                                                     monkeypatch):
    # sigma = 0 and q- = q+ make the two kernel elements one function
    real = floquet.spectrum
    monkeypatch.setattr(
        floquet, "spectrum",
        lambda orbit, lams, with_factors=False: {
            lam: replace(d, sigma=0.0, q_minus=d.q_plus)
            for lam, d in real(orbit, lams, with_factors).items()})
    with pytest.raises(fowler.IntegrationError,
                       match=r"degenerate Floquet kernel pair \(n = 5, "
                             r"eps = .*, lambda = 4\.0, wronskian = 0\.0\)"):
        cylinder.ModeSolveContext(conf5_orbit, 4.0, grid)


def test_inverse_rejects_non_positive_rates(grid, conf5_orbit):
    # the from-the-right integrals converge only for nu > 0: nu = -3 at
    # lambda = 4 used to fail as a kernel-exponent collision, and nu = -0.5
    # at mode 0 returned a finite field from divergent tails
    rhs = np.exp(-grid)
    for lam, nu in ((4.0, -3.0), (0.0, -0.5), (4.0, 0.0), (0.0, 0.0)):
        op = floquet.ModeOperator(conf5_orbit, lam)
        with pytest.raises(cylinder.DecayRateError,
                           match=rf"\(n = 5, eps = .*, lambda = {lam!r}, "
                                 rf"nu = {nu!r}\)"):
            _inverse(op, rhs, nu, grid)
    # a rate below -sigma, where the decaying integrand grows per period
    ctx = cylinder.ModeSolveContext(conf5_orbit, 4.0, grid)
    with pytest.raises(cylinder.DecayRateError, match="must be positive"):
        ctx.solve(rhs, -2.0 * ctx.sigma)


def _whole_window_pair(orbit, lam, t):
    """The fundamental pair integrated across the whole window, the solve
    that one period and quasi-periodicity replace."""
    y0 = [1.0, 0.0, 0.0, 1.0,
          float(orbit.value(t[0])), float(orbit.derivative(t[0]))]
    sol = solve_ivp(floquet.variational_rhs, (t[0], t[-1]), y0,
                    args=(lam, orbit.params), method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    return sol.sol(t)[0:2]


@pytest.mark.parametrize("case", ["nonconstant", "constant", "escalated"])
def test_fundamental_pair_integrates_one_period(case, conf5_orbit,
                                                const5_orbit, monkeypatch):
    orbit = const5_orbit if case == "constant" else conf5_orbit
    t = cylinder.make_grid(10.0 if case == "escalated" else 5.0)
    spans = []
    real = cylinder.solve_ivp
    monkeypatch.setattr(cylinder, "solve_ivp",
                        lambda fun, span, *a, **k: spans.append(span)
                        or real(fun, span, *a, **k))
    ctx = cylinder.ModeSolveContext(orbit, 0.0, t)
    assert ctx.datum.type != floquet.TYPE_III
    assert spans == [(t[0], t[0] + orbit.period)]
    ref = _whole_window_pair(orbit, 0.0, t)
    assert np.max(np.abs(ctx.u - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert abs(np.linalg.det(ctx.shift) - 1.0) <= 1e-10


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_construction_escalates_four_times_then_raises(kind, conf5_orbit,
                                                       ckn_orbit, monkeypatch):
    # one sweep never converges, so both problems walk the same escalation:
    # t0 doubles four times, then one typed error names the problem
    starts = []
    real = cylinder.make_grid
    monkeypatch.setattr(cylinder, "make_grid",
                        lambda t0, *a: starts.append(t0) or real(t0, *a))
    if kind == "conformal":
        prof = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
        call = lambda: cylinder.contraction_construct(conf5_orbit, prof,
                                                      max_iter=1)
        eps = conf5_orbit.epsilon
    else:
        call = lambda: cylinder.ckn_construct(ckn_orbit, 2.4, max_iter=1)
        eps = ckn_orbit.epsilon
    with pytest.raises(cylinder.ConstructionError) as err:
        call()
    assert starts == [5.0, 10.0, 20.0, 40.0, 80.0]
    msg = str(err.value)
    assert msg.startswith(f"{kind} construction (n = 5, eps = {eps!r})")
    assert "t0 = 80.0 after 4 window shifts" in msg


def test_cylinder_field_csv(tmp_path, grid):
    params = fowler.FowlerParams.conformal(5, 1.0)
    modes = (spheres.HarmonicMode(0, 5),)
    f = cylinder.CylinderField(t=grid, modes=modes,
                               coeffs=np.ones((1, grid.size)), params=params)
    path = tmp_path / "field.csv"
    f.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,degree_0"
    assert len(lines) == grid.size + 1
