import copy
import functools
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline

from fowlerlab import cli, cylinder, expansion, floquet, fowler, spheres


@pytest.fixture(scope="module")
def grid():
    return cylinder.make_grid(5.0, 12.0, 1.0 / 64.0)


def test_make_grid_spacing():
    g = cylinder.make_grid(4.0, 8.0, 0.25)
    assert g[0] == 4.0 and g[-1] == 12.0
    assert_allclose(np.diff(g), 0.25)


@pytest.mark.parametrize("t0, window, h", [
    (5.0, 12.0, 0.0), (5.0, 12.0, -0.01), (5.0, 12.0, math.nan),
    (5.0, 12.0, math.inf), (5.0, math.inf, 1 / 64), (5.0, math.nan, 1 / 64),
    (5.0, -1.0, 1 / 64), (5.0, 0.0, 1 / 64), (math.nan, 12.0, 1 / 64),
    (math.inf, 12.0, 1 / 64), (-math.inf, 12.0, 1 / 64)])
def test_make_grid_refuses_non_finite_or_non_positive_values(t0, window, h):
    # these used to escape as ZeroDivisionError, OverflowError, "cannot
    # convert float NaN to integer" or a misleading stencil-width message
    with pytest.raises(ValueError) as err:
        cylinder.make_grid(t0, window, h)
    assert str(err.value) == (
        f"grid needs a finite t0 and a finite positive window and h "
        f"(t0 = {t0!r}, window = {window!r}, h = {h!r})")


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


@pytest.mark.parametrize("case", ["readme", "degree4_forcing",
                                  "degree5_forcing", "ckn"])
def test_construction_agrees_with_a_64_node_projector(case, conf5_orbit,
                                                      ckn_orbit, monkeypatch):
    if case == "ckn":
        def run():
            w, _, trace = cylinder.ckn_construct(ckn_orbit, 2.4)
            return w, trace
    else:
        # a forcing of degree 4 or 5 on degrees 0..2 reaches them only
        # through the nonlinearity, so its projection aliases first
        extra = {"degree4_forcing": ((4, 0.2, 1.5),),
                 "degree5_forcing": ((5, 0.02, 1.5),)}.get(case, ())
        comps = ((1, 0.05, 1.5),) + extra
        prof = cylinder.ForcingProfile(k0=1.0, components=comps)

        def run():
            return cylinder.contraction_construct(conf5_orbit, prof,
                                                  max_degree=2)
    v, trace = run()
    real = spheres.quadrature
    monkeypatch.setattr(spheres, "quadrature", lambda n, num: real(n, 64))
    # a fresh projector memo for the 64-node run, the process-wide one back
    # after the test
    monkeypatch.setattr(cylinder, "_projector",
                        functools.lru_cache(maxsize=None)(cylinder.ZonalProjector))
    v64, trace64 = run()
    assert cylinder._projector(5, v64.modes).s.size == 64
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


@pytest.mark.parametrize("residual", ["M", "N"])
def test_residual_of_a_field_without_parameters_is_refused(grid, residual):
    f = cylinder.CylinderField(t=grid, modes=(spheres.HarmonicMode(0, 5),),
                               coeffs=np.ones((1, grid.size)))
    with pytest.raises(ValueError, match=f"residual_{residual} requires"):
        if residual == "M":
            cylinder.residual_M(f, cylinder.ForcingProfile(k0=1.0))
        else:
            cylinder.residual_N(f)


def test_construction_refuses_a_profile_with_another_k0(monkeypatch):
    # the equation takes K from the orbit's K(0) and the profile's deviation,
    # which the profile scales by its own k0: a mismatch used to converge to
    # a field that solves neither K
    params = fowler.FowlerParams.conformal(5, 2.0)
    orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params), params)
    prof = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
    monkeypatch.setattr(cylinder, "_iterate", None)
    with pytest.raises(ValueError) as err:
        cylinder.contraction_construct(orb, prof)
    assert str(err.value) == ("profile K(0) = 1.0 differs from the orbit's "
                              "K(0) = 2.0")


def test_forcing_profile_validation_and_flatness():
    with pytest.raises(ValueError):
        cylinder.ForcingProfile(k0=-1.0)
    with pytest.raises(ValueError):
        cylinder.ForcingProfile(k0=1.0, components=((1, 0.1, 0.5),))
    prof = cylinder.ForcingProfile(k0=2.0, components=((1, 0.1, 1.5),))
    assert not prof.is_flat and prof.min_rate == 1.5
    with pytest.raises(cylinder.PositivityError):
        big = cylinder.ForcingProfile(k0=1.0, components=((1, 40.0, 1.5),))
        big.deviation(np.array([0.0]), np.array([-1.0]), {1: np.array([-1.0])})


def test_construction_refuses_an_iterate_that_loses_positivity(conf5_orbit):
    # K itself stays positive on the window (1000 e^{-1.5 t} <= 0.56 from
    # t0 = 5), but the iteration drives xi + phi below zero on the nodes
    prof = cylinder.ForcingProfile(k0=1.0, components=((1, 1000.0, 1.5),))
    with pytest.raises(cylinder.PositivityError,
                       match="iterate lost positivity"):
        cylinder.contraction_construct(conf5_orbit, prof)


def _inverse(op, rhs, nu, tgrid):
    """The bounded inverse of a mode operator on a window, through the
    window's cached context."""
    return cylinder._context_cache(op.orbit, op.lam, tgrid).solve(rhs, nu)


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
        phi = _inverse(op, rhs, beta, g)
        # the ratio of the e^{beta t}-weighted sup norms
        wn = np.exp(beta * g)
        consts.append(np.max(wn * np.abs(phi)) / np.max(wn * np.abs(rhs)))
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


# the cumulative integrals from the left and from the right, along the last
# axis of y, each from its own interval increments: the two-pass form the
# stacked inverse's one pass over all rows replaces
def _cum_from_left(y, h):
    inc = cylinder._interval_increments(y, h)
    zero = np.zeros(inc.shape[:-1] + (1,))
    return np.concatenate([zero, np.cumsum(inc, axis=-1)], axis=-1)


def _cum_from_right(y, h):
    inc = cylinder._interval_increments(y, h)
    zero = np.zeros(inc.shape[:-1] + (1,))
    return np.concatenate([np.cumsum(inc[..., ::-1], axis=-1)[..., ::-1], zero],
                          axis=-1)


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
    assert (ctx.window.last_period_rule[:2] == (1, 0)) == fills_window
    a, b = g[-1] - orb.period, g[-1]
    for f in (lambda t: np.exp(-1.2 * t) * np.cos(3.0 * t),
              lambda t: np.exp(-2.5 * t) * orb.value(t),
              lambda t: np.exp(-4.0 * t) * np.sin(7.0 * t)):
        y = f(g)
        ref = quad(lambda t: float(f(np.array(t))), a, b, epsabs=0.0,
                   epsrel=1e-13, limit=200)[0]
        new = ctx.window.last_period(y, _cum_from_right(y, h))
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
    cum = _cum_from_right(y, h)
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
    assert_allclose(_cum_from_left(np.polyval(coef, t), h),
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


def test_six_point_rules_give_a_row_the_same_bits_in_any_stack():
    # the edge and partial-interval rules and the edge stencils of the
    # second derivative add their six products in index order, so a row's
    # sums and derivatives do not depend on how many rows come with it
    g = cylinder.make_grid()
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(7, g.size)) * np.exp(-rng.uniform(0, 2, (7, 1)) * g)
    alone = [cylinder._interval_increments(r, 1.0) for r in rows]
    k, first, w = cylinder._partial_interval_rule(g.size, 3.37)
    parts = [cylinder._weighted_sum(r[first:first + 6], w) for r in rows]
    d2 = [cylinder.second_derivative(r, 1 / 64) for r in rows]
    for m in range(1, 8):
        assert np.array_equal(cylinder._interval_increments(rows[:m], 1.0),
                              alone[:m])
        assert np.array_equal(cylinder.second_derivative(rows[:m], 1 / 64),
                              d2[:m])
        assert np.array_equal(
            cylinder._weighted_sum(rows[:m, first:first + 6], w), parts[:m])


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
    got = cylinder._power_remainder(exponent, base, base**exponent, delta)
    assert got.shape == (grid.size, 64)
    assert np.array_equal(got, _power_remainder_where(exponent, base, delta))


def _captured_build(monkeypatch, construct):
    """A construction's first window as `_construct` sees it: the data its
    `build` returns, the rhs the sweeps call and every (iterate on the
    nodes, pointwise values) that `_construct` projects, the forcing first
    with iterate None."""
    builds, rhs_fns, projected, phi = [], [], [], [None]
    real_construct, real_iterate = cylinder._construct, cylinder._iterate
    real_project = cylinder.ZonalProjector.project

    def construct_(orbit, modes, nu, build, *rest):
        return real_construct(orbit, modes, nu, lambda *args: builds.append(
            build(*args)) or builds[-1], *rest)

    def iterate_(orbit, tgrid, modes, rhs0, rhs_fn, *rest):
        def rhs(coeffs):
            # the synthesis rhs_fn makes, in its own buffer
            phi[0] = coeffs.T @ cylinder._projector(orbit.params.n, modes).basis
            return rhs_fn(coeffs)
        rhs_fns.append(rhs)
        return real_iterate(orbit, tgrid, modes, rhs0, rhs, *rest)

    def project(self, values):
        projected.append((phi[0], values))
        return real_project(self, values)

    monkeypatch.setattr(cylinder, "_construct", construct_)
    monkeypatch.setattr(cylinder, "_iterate", iterate_)
    monkeypatch.setattr(cylinder.ZonalProjector, "project", project)
    construct()
    return builds[0], rhs_fns[0], projected


def _readme_construction(kind, conf5_orbit, ckn_orbit, comps=((1, 0.05, 1.5),),
                         top=2):
    if kind == "ckn":
        return lambda: cylinder.ckn_construct(ckn_orbit, 2.4)
    prof = cylinder.ForcingProfile(k0=1.0, components=comps)
    return lambda: cylinder.contraction_construct(conf5_orbit, prof,
                                                  max_degree=top)


@pytest.mark.parametrize("case", ["one", "degrees_1_4", "flat", "ckn"])
def test_forcing_is_the_pointwise_map_at_zero(case, conf5_orbit, ckn_orbit,
                                              monkeypatch):
    # the first sweep projects the forcing C D instead of the map at phi = 0
    comps, top = {"one": (((1, 0.05, 1.5),), 2),
                  "degrees_1_4": (((1, 0.05, 1.5), (4, 0.02, 2.5)), 4),
                  "flat": ((), 2), "ckn": ((), 2)}[case]
    data, rhs, projected = _captured_build(monkeypatch, _readme_construction(
        "ckn" if case == "ckn" else "conformal", conf5_orbit, ckn_orbit,
        comps, top))
    rhs(np.zeros(data[0].shape))  # the map at phi = 0
    forcing, at_zero = projected[0][1], projected[-1][1]
    assert not forcing.flags.writeable
    assert np.array_equal(at_zero, forcing)
    assert np.array_equal(np.signbit(at_zero), np.signbit(forcing))
    assert (case == "flat") == (not np.any(forcing))


def _conformal_pointwise(e, xi, xi_e, dxi_e, k, k_dev):
    """The conformal construction's map as it was written on its own."""
    def pointwise(phi_vals):
        out = cylinder._power_remainder(e, xi, xi_e, phi_vals)
        out *= k
        phi_vals *= dxi_e
        phi_vals += xi_e
        phi_vals *= k_dev
        out += phi_vals
        return out
    return pointwise, k_dev * xi_e


def _ckn_pointwise(exponent, what_vals, what_pow, forcing, lin_offset):
    """The CKN construction's map as it was written on its own."""
    def pointwise(phi_vals):
        out = cylinder._power_remainder(exponent, what_vals, what_pow, phi_vals)
        out += forcing
        phi_vals *= lin_offset
        out += phi_vals
        return out
    return pointwise, forcing


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_construction_map_is_bitwise_the_two_closures(kind, conf5_orbit,
                                                      ckn_orbit, monkeypatch):
    # B R_e(b; phi) + C (A phi + D) with each problem's data gives the bits
    # of the map that problem formed itself, on every sweep
    (_, b, e, b_e, A, B, C, D), _, projected = _captured_build(
        monkeypatch, _readme_construction(kind, conf5_orbit, ckn_orbit))
    if kind == "conformal":
        assert np.array_equal(A, e * b ** (e - 1.0))
        assert np.array_equal(B, 1.0 + C) and np.array_equal(D, b_e)
        pointwise, forcing = _conformal_pointwise(e, b, b_e, A, B, C)
    else:
        assert B == C == 1.0
        pointwise, forcing = _ckn_pointwise(e, b, b_e, D, A)
    (none, first), *sweeps = projected
    assert none is None and np.array_equal(first, forcing)
    assert np.array_equal(np.signbit(first), np.signbit(forcing))
    assert len(sweeps) >= 1
    for phi_vals, values in sweeps:
        old = pointwise(phi_vals.copy())
        assert np.array_equal(values, old)
        assert np.array_equal(np.signbit(values), np.signbit(old))


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_a_result_that_is_not_positive_is_refused(kind, conf5_orbit,
                                                  ckn_orbit, monkeypatch):
    # `_construct` checks base + phi on 101 cosines after the last sweep for
    # both problems; here the converged phi is pushed below the orbit
    real = cylinder._iterate

    def sunk(*args):
        phi, *rest = real(*args)
        return (phi - 10.0, *rest)

    monkeypatch.setattr(cylinder, "_iterate", sunk)
    orbit = conf5_orbit if kind == "conformal" else ckn_orbit
    named = orbit.named(("t0", 5.0), ("window", 12.0))
    with pytest.raises(cylinder.PositivityError) as err:
        _readme_construction(kind, conf5_orbit, ckn_orbit)()
    assert str(err.value) == f"constructed field is not positive ({named})"


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_warm_construction_is_bitwise_that_of_a_fresh_orbit(kind):
    # warm contexts, the window's shared samples and the forcing formed once
    # per window change no bit of the result
    if kind == "conformal":
        params, eps = fowler.FowlerParams.conformal(5, 1.0), 0.5
        warm_up, probe = (1, 0.05, 1.5), (2, 0.03, 2.2)

        def construct(orbit, comps):
            prof = cylinder.ForcingProfile(k0=1.0, components=(comps,))
            v, trace = cylinder.contraction_construct(orbit, prof)
            return v, cylinder.orbit_field(orbit, v.t), trace
    else:
        params, eps = fowler.FowlerParams.ckn(5, 0.5, 0.7), 0.4
        warm_up, probe = 2.4, 2.7

        def construct(orbit, nu):
            return cylinder.ckn_construct(orbit, nu)

    def shoot():
        return fowler.periodic_orbit(eps * fowler.constant_solution(params),
                                     params)

    warm = shoot()
    construct(warm, warm_up)
    (v, base, trace), (v2, base2, trace2) = (construct(warm, probe),
                                             construct(shoot(), probe))
    assert np.array_equal(v.coeffs, v2.coeffs)
    assert np.array_equal(base.coeffs, base2.coeffs)
    assert trace.to_dict() == trace2.to_dict()
    fits = [cylinder.decay_rate_fit(
        f.combination(b, 1.0, -1.0),
        t_window=cylinder.period_aligned_window(f, warm)).to_dict()
        for f, b in ((v, base), (v2, base2))]
    assert fits[0] == fits[1]


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
    assert cylinder.orbit_field(orb, np.array([])).coeffs.shape == (3, 0)
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


def test_contraction_slope_and_stability(conf5_orbit, monkeypatch):
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
    monkeypatch.setattr(cylinder, "MAX_SWEEPS", 25)
    v2, _ = cylinder.contraction_construct(orb, prof, tol=1e-9)
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
    data = floquet.exponent_sequence(ckn_orbit, 6)
    named = ckn_orbit.named(("nu", 0.5), ("sigma_1", data[0].sigma))
    with pytest.raises(ValueError) as err:
        cylinder.ckn_construct(ckn_orbit, 0.5)
    assert str(err.value) == f"nu must exceed sigma_1 ({named})"
    with pytest.raises(ValueError, match="degree 3 outside"):
        cylinder.ckn_construct(ckn_orbit, 2.4, degree=3, max_degree=2)
    nu = 2.0 * data[0].sigma
    with pytest.raises(cylinder.ResonanceError) as err:
        cylinder.ckn_construct(ckn_orbit, nu)
    assert str(err.value) == (f"nu lies in the exponent index set "
                              f"({ckn_orbit.named(('nu', nu))})")


def test_ckn_construct_decay(ckn_orbit):
    w, w_hat, trace = cylinder.ckn_construct(ckn_orbit, 2.4)
    assert trace.converged and trace.escalations == 0
    diff = w.combination(w_hat, 1.0, -1.0)
    lo = w.t[0] + 0.5
    fit = cylinder.decay_rate_fit(diff, t_window=(lo, lo + 2 * ckn_orbit.period))
    assert abs(fit.slope_plain / 2.4 - 1.0) < 0.05


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_construction_batches_its_floquet_setup(kind, monkeypatch):
    # on a fresh orbit: one monodromy batch, mode 0 with the exponents'
    # degrees, then one kernel batch for every Type III mode of the window
    calls = []

    def recorded(name, real, lam_of):
        def run(orbit, batch):
            calls.append((name, [lam_of(x) for x in batch]))
            return real(orbit, batch)
        return run

    monkeypatch.setattr(floquet, "monodromy",
                        recorded("monodromy", floquet.monodromy, float))
    monkeypatch.setattr(floquet, "kernel_basis",
                        recorded("kernel", floquet.kernel_basis,
                                 lambda d: d.lam))
    if kind == "conformal":
        params = fowler.FowlerParams.conformal(5, 1.0)
        orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params),
                                    params)
        prof = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
        cylinder.contraction_construct(orb, prof)
        lams = [0.0, 4.0, 10.0, 18.0]
    else:
        params = fowler.FowlerParams.ckn(5, 0.5, 0.7)
        orb = fowler.periodic_orbit(0.4 * fowler.constant_solution(params),
                                    params)
        cylinder.ckn_construct(orb, 2.4)
        lams = [0.0, 4.0, 10.0, 18.0, 28.0, 40.0]
    assert calls == [("monodromy", lams), ("kernel", [4.0, 10.0])]


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
    with pytest.raises(fowler.IntegrationError) as err:
        cylinder.ModeSolveContext(conf5_orbit, 0.0, grid)
    assert str(err.value) == (f"fundamental pair integration failed "
                              f"({conf5_orbit.named(('lambda', 0.0))})")


def test_degenerate_kernel_pair_names_the_parameters(grid, conf5_orbit,
                                                     monkeypatch):
    # sigma = 0 and q- = q+ make the two kernel elements one function
    real = floquet.spectrum
    monkeypatch.setattr(
        floquet, "spectrum",
        lambda orbit, lams, with_factors=False: {
            lam: replace(d, sigma=0.0, q_minus=d.q_plus)
            for lam, d in real(orbit, lams, with_factors).items()})
    named = conf5_orbit.named(("lambda", 4.0), ("wronskian", 0.0))
    with pytest.raises(fowler.IntegrationError) as err:
        cylinder.ModeSolveContext(conf5_orbit, 4.0, grid)
    assert str(err.value) == f"degenerate Floquet kernel pair ({named})"


def test_inverse_rejects_non_positive_rates(grid, conf5_orbit):
    # the from-the-right integrals converge only for nu > 0: nu = -3 at
    # lambda = 4 used to fail as a kernel-exponent collision, and nu = -0.5
    # at mode 0 returned a finite field from divergent tails
    rhs = np.exp(-grid)
    for lam, nu in ((4.0, -3.0), (0.0, -0.5), (4.0, 0.0), (0.0, 0.0)):
        op = floquet.ModeOperator(conf5_orbit, lam)
        named = conf5_orbit.named(("lambda", lam), ("nu", nu))
        with pytest.raises(cylinder.DecayRateError,
                           match=re.escape(f"positive ({named})")):
            _inverse(op, rhs, nu, grid)
    # a rate below -sigma, where the decaying integrand grows per period
    ctx = cylinder.ModeSolveContext(conf5_orbit, 4.0, grid)
    with pytest.raises(cylinder.DecayRateError, match="must be positive"):
        ctx.solve(rhs, -2.0 * ctx.sigma)


def _whole_window_pair(orbit, lam, t):
    """The fundamental pair, identity data at t = 0, integrated across the
    whole window: the solve that the shooting pieces and quasi-periodicity
    replace."""
    y0 = [1.0, 0.0, 0.0, 1.0,
          float(orbit.value(0.0)), float(orbit.derivative(0.0))]
    sol = solve_ivp(floquet.variational_system([lam, lam], orbit.params),
                    (0.0, t[-1]), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    return sol.sol(t)[0:2]


@pytest.mark.parametrize("case", ["nonconstant", "constant", "escalated"])
def test_fundamental_pair_integrates_one_period(case, conf5_orbit,
                                                const5_orbit, monkeypatch):
    # one shooting solve over P / KERNEL_PIECES, based at t = 0 whatever
    # the window's start
    orbit = const5_orbit if case == "constant" else conf5_orbit
    t = cylinder.make_grid(10.0 if case == "escalated" else 5.0)
    spans = []
    real = cylinder.solve_ivp
    monkeypatch.setattr(cylinder, "solve_ivp",
                        lambda fun, span, *a, **k: spans.append(span)
                        or real(fun, span, *a, **k))
    ctx = cylinder.ModeSolveContext(orbit, 0.0, t)
    assert ctx.datum.type != floquet.TYPE_III
    assert spans == [(0.0, orbit.period / floquet.KERNEL_PIECES)]
    ref = _whole_window_pair(orbit, 0.0, t)
    assert np.max(np.abs(ctx.u - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert abs(np.linalg.det(ctx.shift) - 1.0) <= 1e-10


def _conformal_orbit(n, frac):
    params = fowler.FowlerParams.conformal(n, 1.0)
    return fowler.periodic_orbit(frac * fowler.constant_solution(params),
                                 params)


@pytest.fixture(scope="module")
def slow3_orbit():
    """n = 3 at 1e-3 xi*, a small neck with a long period (T = 33)."""
    return _conformal_orbit(3, 1e-3)


@pytest.fixture(scope="module")
def conf8_orbit():
    return _conformal_orbit(8, 0.3)


@pytest.mark.parametrize("orbit_name, bar", [
    ("conf5_orbit", 1e-12), ("ckn_orbit", 1e-12), ("slow3_orbit", 1e-9)])
def test_fundamental_pair_period_map_has_the_monodromy_trace(orbit_name, bar,
                                                             request):
    # S = Phi(P) of the pair against the Magnus monodromy that classified
    # mode 0
    orbit = request.getfixturevalue(orbit_name)
    t = cylinder.make_grid(5.0, max(12.0, 1.1 * orbit.period))
    ctx = cylinder.ModeSolveContext(orbit, 0.0, t)
    assert abs(np.trace(ctx.shift) - np.trace(ctx.datum.monodromy)) <= bar


def _t0_based_pair(orbit, t):
    """The fundamental pair with identity data at the window's start t0,
    integrated over [t0, t0 + P] and carried across the window by its
    period map S: (u, S), W = 1."""
    period = orbit.period
    y0 = [1.0, 0.0, 0.0, 1.0,
          float(orbit.value(t[0])), float(orbit.derivative(t[0]))]
    sol = solve_ivp(floquet.variational_system([0.0, 0.0], orbit.params),
                    (t[0], t[0] + period), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    shift = sol.y[:4, -1].reshape(2, 2)
    k, s = np.divmod(t - t[0], period)
    first = sol.sol(t[0] + s)[0:2]
    u = np.empty_like(first)
    for j in range(int(k[-1]) + 1):
        u[:, k == j] = np.linalg.matrix_power(shift, j).T @ first[:, k == j]
    return u, shift


@pytest.mark.parametrize("t0", [5.0, 10.0])
@pytest.mark.parametrize("orbit_name", ["conf5_orbit", "ckn_orbit",
                                        "conf8_orbit", "slow3_orbit"])
def test_mode0_inverse_does_not_depend_on_the_pair_basis(orbit_name, t0,
                                                         request):
    # the pair based at t = 0 against the pair based at the window's t0:
    # phi = [u2 int u1 f - u1 int u2 f] / W and its tails are the same for
    # any pair of Wronskian 1
    orbit = request.getfixturevalue(orbit_name)
    t = cylinder.make_grid(t0, max(12.0, 1.1 * orbit.period))
    ctx = cylinder.ModeSolveContext(orbit, 0.0, t)
    ref_ctx = copy.copy(ctx)
    ref_ctx.u, ref_ctx.shift = _t0_based_pair(orbit, t)
    rhs = np.exp(-1.5 * t) * orbit.value(t)
    got, ref = ctx.solve(rhs, 1.5), ref_ctx.solve(rhs, 1.5)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("orbit_name", ["conf5_orbit", "ckn_orbit",
                                        "const5_orbit", "slow3_orbit"])
def test_planted_seed_error_shows_in_the_pair_defect(orbit_name, request):
    # one node of the datum's Magnus tree level scaled by 1 + 1e-6: the
    # pair's piece it seeds starts off the solution, and its junction says so
    orbit = request.getfixturevalue(orbit_name)
    t = cylinder.make_grid(5.0, max(12.0, 1.1 * orbit.period))
    clean = cylinder.ModeSolveContext(orbit, 0.0, t)
    nodes = clean.datum.nodes.copy()
    nodes[5] *= 1.0 + 1e-6
    planted = replace(orbit, _floquet={}, _windows={})
    planted._floquet[0.0] = replace(clean.datum, nodes=nodes)
    bad = cylinder.ModeSolveContext(planted, 0.0, t)
    assert clean.pair_defect < 1e-10 < 1e-7 < bad.pair_defect


@pytest.mark.parametrize("orbit_name", ["conf5_orbit", "ckn_orbit",
                                        "const5_orbit"])
def test_every_shift_is_unimodular_with_the_monodromy_trace(orbit_name,
                                                           request):
    # every context carries its pair's period map S; a hyperbolic S is
    # diag(e^{-sigma P}, e^{sigma P}), mode 0's the pair after one period
    orbit = request.getfixturevalue(orbit_name)
    t = cylinder.make_grid()
    for k in range(4):
        ctx = cylinder.ModeSolveContext(orbit, float(spheres.eigenvalue(k, 5)),
                                        t)
        bar = 1e-14 if ctx.datum.type == floquet.TYPE_III else 1e-11
        trace = np.trace(ctx.datum.monodromy)
        assert abs(np.linalg.det(ctx.shift) - 1.0) <= bar
        assert abs(np.trace(ctx.shift) - trace) <= bar * abs(trace)


def test_tail_map_is_the_closed_form_geometric_sum(conf5_orbit):
    # T = (I - m)^{-1} m, m = e^{-nu P} S^T, against the per-type forms it
    # replaces: diag(r/(1 - r)) with r = e^{(-+sigma - nu) P}, and a zero
    # row for a growing element summed from the left.  The two round the
    # exponent differently, and r/(1 - r) amplifies that by 1/|1 - r|.
    t, period = cylinder.make_grid(), conf5_orbit.period
    eps = np.finfo(float).eps
    for k in (1, 2):
        ctx = cylinder.ModeSolveContext(conf5_orbit,
                                        float(spheres.eigenvalue(k, 5)), t)
        sigma = ctx.sigma
        for nu in (0.3 * sigma, 0.9 * sigma, sigma - 0.01, sigma + 0.01,
                   1.5 * sigma, 2.0 * sigma):
            tails, from_left = ctx.tail_map(nu)
            assert from_left == (sigma > nu)
            ref, bar = np.zeros((2, 2)), np.zeros((2, 2))
            for i, x in enumerate(((-sigma - nu) * period,
                                   (sigma - nu) * period)):
                if i == 1 and from_left:
                    continue
                r = math.exp(x)
                ref[i, i] = r / (1.0 - r)
                bar[i, i] = 4.0 * eps * (1.0 + abs(x)) / abs(1.0 - r)
            assert np.all(np.abs(tails - ref) <= bar * np.abs(ref))


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_construction_escalates_four_times_then_raises(kind, conf5_orbit,
                                                       ckn_orbit, monkeypatch):
    # one sweep never converges, so both problems walk the same escalation:
    # t0 doubles four times, then one typed error names the problem
    starts = []
    real = cylinder.make_grid
    monkeypatch.setattr(cylinder, "make_grid",
                        lambda t0, *a: starts.append(t0) or real(t0, *a))
    monkeypatch.setattr(cylinder, "MAX_SWEEPS", 1)
    if kind == "conformal":
        prof = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
        call = lambda: cylinder.contraction_construct(conf5_orbit, prof)
        orbit = conf5_orbit
    else:
        call = lambda: cylinder.ckn_construct(ckn_orbit, 2.4)
        orbit = ckn_orbit
    with pytest.raises(cylinder.ConstructionError) as err:
        call()
    assert starts == [5.0, 10.0, 20.0, 40.0, 80.0]
    msg = str(err.value)
    assert msg.endswith(f" ({orbit.named()})")
    assert orbit.named().startswith(f"{kind} problem, n = 5, ")
    assert "t0 = 80.0 after 4 window shifts" in msg


def test_cylinder_field_csv(tmp_path, grid):
    params = fowler.FowlerParams.conformal(5, 1.0)
    modes = (spheres.HarmonicMode(0, 5),)
    f = cylinder.CylinderField(t=grid, modes=modes,
                               coeffs=np.ones((1, grid.size)), params=params)
    path = tmp_path / "field.csv"
    cli.write_csv(["t"] + [f"degree_{m.degree}" for m in f.modes],
                  [f.t, *f.coeffs], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,degree_0"
    assert len(lines) == grid.size + 1


@pytest.mark.parametrize("comps", [((3, 0.05, 1.5),),
                                   ((4, 0.02, 1.5), (3, 0.05, 2.5))])
def test_forcing_of_no_retained_degree_is_refused(comps, monkeypatch):
    # nothing seeds phi, so phi = 0 is the exact fixed point: refused before
    # any Floquet work, naming the lowest forcing degree
    orb = _fresh_orbit("conformal")
    calls = []
    _record_solve_ivp(monkeypatch, calls)
    prof = cylinder.ForcingProfile(k0=1.0, components=comps)
    with pytest.raises(ValueError, match=r"forcing degree 3 above the "
                                         r"retained degrees 0\.\.2"):
        cylinder.contraction_construct(orb, prof, max_degree=2)
    assert calls == [] and orb._floquet == {}


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_warm_construction_forms_no_basis(kind, conf5_orbit, ckn_orbit,
                                          monkeypatch):
    # the projector and the cosine-grid bases are formed once per process:
    # a second construction on a warm window evaluates no harmonic
    if kind == "conformal":
        prof = cylinder.ForcingProfile(k0=1.0, components=((2, 0.05, 2.3),))
        call = lambda: cylinder.contraction_construct(conf5_orbit, prof)
    else:
        call = lambda: cylinder.ckn_construct(ckn_orbit, 2.6)
    first = call()
    calls = []
    real_eval, real_init = spheres.eval_zonal, cylinder.ZonalProjector.__init__
    monkeypatch.setattr(spheres, "eval_zonal",
                        lambda *a: calls.append("eval_zonal") or real_eval(*a))
    monkeypatch.setattr(cylinder.ZonalProjector, "__init__",
                        lambda *a: calls.append("projector") or real_init(*a))
    again = call()
    assert calls == []
    assert np.array_equal(again[0].coeffs, first[0].coeffs)


def test_cosine_grid_values_match_evaluate(conf5_orbit):
    # sup_theta and the final positivity check read the memoized bases; the
    # forms they replace evaluated every harmonic on the grid each call
    prof = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),
                                                       (2, 0.03, 2.5)))
    v, _ = cylinder.contraction_construct(conf5_orbit, prof)
    diff = v.combination(cylinder.orbit_field(conf5_orbit, v.t), 1.0, -1.0)
    for field in (v, diff):
        old_sup = np.max(np.abs(field.evaluate(np.linspace(-1.0, 1.0, 201))),
                         axis=1)
        assert np.array_equal(field.sup_theta(), old_sup)
        old_min = np.min(field.evaluate(np.linspace(-1, 1, 101)))
        assert np.min(field.on_cosines(101)) == old_min


def test_memoized_arrays_are_read_only(conf5_orbit):
    prof = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
    v, _ = cylinder.contraction_construct(conf5_orbit, prof)
    proj = cylinder._projector(5, v.modes)
    assert cylinder._projector(5, v.modes) is proj
    contexts = [cylinder._context_cache(conf5_orbit, float(m.eigenvalue), v.t)
                for m in v.modes]
    arrays = [proj.basis, proj.norms, cylinder._cosine_basis(v.modes, 201),
              cylinder._cosine_basis(v.modes, 101)]
    arrays += [a for ctx in contexts for a in (ctx.u, ctx.shift)]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def _reference_solve(ctx, rhs, nu):
    """The per-mode inverse as one branch per case, each with its own
    cumulative sums and tails: the form the stacked inverse replaces."""
    h, period = ctx.window.h, ctx.orbit.period

    def geometric_tail(integrand, cum, rate):
        r = math.exp((rate - nu) * period)
        return r * ctx.window.last_period(integrand, cum) / (1.0 - r)

    if ctx.datum.type == floquet.TYPE_III:
        sigma, (psi_m, psi_p) = ctx.sigma, ctx.u
        g_minus = psi_m * rhs / ctx.wronskian
        g_plus = psi_p * rhs / ctx.wronskian
        cum_m = _cum_from_right(g_minus, h)
        tail_m = geometric_tail(g_minus, cum_m, -sigma)
        if sigma > nu:
            return (psi_m * _cum_from_left(g_plus, h)
                    + psi_p * (cum_m + tail_m))
        cum_p = _cum_from_right(g_plus, h)
        tail_p = geometric_tail(g_plus, cum_p, sigma)
        return psi_p * (cum_m + tail_m) - psi_m * (cum_p + tail_p)
    g1, g2 = ctx.u[0] * rhs, ctx.u[1] * rhs
    cum1 = _cum_from_right(g1, h)
    cum2 = _cum_from_right(g2, h)
    j = np.array([ctx.window.last_period(g1, cum1),
                  ctx.window.last_period(g2, cum2)])
    r = math.exp(-nu * period)
    tails = np.linalg.solve(np.eye(2) - r * ctx.shift.T, r * ctx.shift.T @ j)
    return ctx.u[1] * (cum1 + tails[0]) - ctx.u[0] * (cum2 + tails[1])


@pytest.mark.parametrize("case", ["readme", "constant", "one_period"])
def test_stacked_inverse_matches_the_per_mode_branches(case, conf5_orbit,
                                                       const5_orbit):
    # modes 0..2 at nu = 1.5: Type II (Type IV on the constant orbit), a
    # mode with sigma < nu and one with sigma > nu, all in one stack
    orbit = const5_orbit if case == "constant" else conf5_orbit
    h = cylinder.DEFAULT_H
    if case == "one_period":
        t = 5.0 + h * np.arange(math.ceil(orbit.period / h) + 1)
    else:
        t = cylinder.make_grid()
    nu = 1.5
    contexts = [cylinder._context_cache(orbit, float(spheres.eigenvalue(k, 5)),
                                        t) for k in range(3)]
    kinds = [(ctx.datum.type, ctx.datum.type == floquet.TYPE_III
              and ctx.sigma > nu) for ctx in contexts]
    assert kinds[1:] == [(floquet.TYPE_III, False), (floquet.TYPE_III, True)]
    assert kinds[0][0] == (floquet.TYPE_IV if case == "constant"
                           else floquet.TYPE_II)
    rhs = np.array([np.exp(-b * t) * (1.0 + 0.3 * np.cos(c * t))
                    for b, c in ((1.7, 2.0), (1.9, 5.0), (2.2, 3.0))])
    got = cylinder._StackedInverse(contexts, nu)(rhs)
    for ctx, f, phi in zip(contexts, rhs, got):
        ref = _reference_solve(ctx, f, nu)
        assert np.max(np.abs(phi - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(ctx.solve(f, nu), phi)


def _two_pass_call(inverse, rhs):
    """`_StackedInverse.__call__` with each direction's rows summed from
    their own interval increments: the form the one pass replaces."""
    g = (inverse.inner * rhs[:, None, :]).reshape(-1, rhs.shape[-1])
    cum = np.empty_like(g)
    cum[inverse.right] = _cum_from_right(g[inverse.right], inverse.window.h)
    cum[inverse.left] = -_cum_from_left(g[inverse.left], inverse.window.h)
    j = inverse.window.last_period(g, cum).reshape(-1, 2, 1)
    cum = cum.reshape(inverse.outer.shape) + inverse.tails @ j
    return inverse.outer[:, 0] * cum[:, 0] + inverse.outer[:, 1] * cum[:, 1]


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_one_pass_inverse_is_bitwise_the_two_pass_form(kind, conf5_orbit,
                                                       ckn_orbit, monkeypatch):
    # every sweep of the README constructions; the conformal one runs at
    # nu = 1.5 < sigma_2, and both stacks have a row summed from the left
    calls = []
    one_pass = cylinder._StackedInverse.__call__

    def recorded(self, rhs):
        out = one_pass(self, rhs)
        calls.append((self, rhs.copy(), out.copy()))
        return out
    monkeypatch.setattr(cylinder._StackedInverse, "__call__", recorded)
    if kind == "conformal":
        cylinder.contraction_construct(conf5_orbit, cylinder.ForcingProfile(
            k0=1.0, components=((1, 0.05, 1.5),)))
    else:
        cylinder.ckn_construct(ckn_orbit, 2.4)
    assert len(calls) >= 3
    assert calls[0][0].left.size > 0
    for inverse, rhs, got in calls:
        ref = _two_pass_call(inverse, rhs)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_stacked_inverse_checks_its_rate_once(conf5_orbit):
    # the construction's inverse refuses nu <= 0 and a resonant nu before
    # any sweep, naming the problem, the mode and the rate
    t = cylinder.make_grid()
    contexts = [cylinder._context_cache(conf5_orbit,
                                        float(spheres.eigenvalue(k, 5)), t)
                for k in range(3)]
    named = conf5_orbit.named(("lambda", 0.0), ("nu", -1.0))
    with pytest.raises(cylinder.DecayRateError,
                       match=re.escape(f"must be positive ({named})")):
        cylinder._StackedInverse(contexts, -1.0)
    sigma = contexts[1].sigma
    nu = sigma + 5e-7
    named = conf5_orbit.named(("lambda", 4.0), ("nu", nu))
    with pytest.raises(cylinder.ResonanceError,
                       match=re.escape(f"exponent {sigma!r} ({named})")):
        cylinder._StackedInverse(contexts, nu)
    with pytest.raises(cylinder.ResonanceError, match=r"lambda = 4\.0"):
        contexts[1].solve(np.exp(-t), nu)


def _slice_sum_second_derivative(values, h):
    # the interior rule summed over slices, before one applier ran both
    # local rules
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    out = np.empty_like(values)
    out[..., 2:-2] = sum(w * values[..., i:n - 4 + i]
                         for i, w in enumerate(cylinder._D2_INTERIOR))
    out[..., :2] = cylinder._weighted_sum(values[..., None, :6],
                                          cylinder._D2_LEFT)
    out[..., -2:] = cylinder._weighted_sum(values[..., None, -6:],
                                           cylinder._D2_RIGHT)
    return out / (h * h)


def _per_row_interval_increments(y, h):
    n = y.shape[-1]
    inc = np.empty(y.shape[:-1] + (n - 1,))
    for row, out in zip(y.reshape(-1, n), inc.reshape(-1, n - 1)):
        out[2:n - 3] = np.correlate(row, cylinder._INT_CENTER, "valid")
    inc[..., :2] = cylinder._weighted_sum(y[..., None, :6], cylinder._INT_LEFT)
    inc[..., -2:] = cylinder._weighted_sum(y[..., None, -6:],
                                           cylinder._INT_RIGHT)
    return inc * h


def _assert_local_rules_are_the_earlier_ones(y, h):
    for got, ref in ((cylinder.second_derivative(y, h),
                      _slice_sum_second_derivative(y, h)),
                     (cylinder._interval_increments(y, h),
                      _per_row_interval_increments(y, h))):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_local_rules_are_bitwise_the_earlier_code_on_random_stacks():
    rng = np.random.default_rng(20240801)
    for _ in range(300):
        lead = tuple(int(k) for k in rng.integers(1, 4, rng.integers(0, 3)))
        y = (rng.standard_normal(lead + (int(rng.integers(6, 120)),))
             * 10.0 ** rng.uniform(-30.0, 30.0))
        _assert_local_rules_are_the_earlier_ones(y, float(rng.uniform(1e-3, 1)))


@pytest.mark.parametrize("kind", ["conformal", "ckn"])
def test_local_rules_are_bitwise_the_earlier_code_on_the_readme_rows(
        kind, conf5_orbit, ckn_orbit, monkeypatch):
    # every stack of integrands the README construction's sweeps integrate,
    # and the field's rows its residual differentiates
    stacks = []
    increments = cylinder._interval_increments

    def recorded(y, h):
        stacks.append((y.copy(), h))
        return increments(y, h)
    monkeypatch.setattr(cylinder, "_interval_increments", recorded)
    if kind == "conformal":
        field, _ = cylinder.contraction_construct(
            conf5_orbit, cylinder.ForcingProfile(
                k0=1.0, components=((1, 0.05, 1.5),)))
    else:
        field, _, _ = cylinder.ckn_construct(ckn_orbit, 2.4)
    assert len(stacks) >= 3
    h = float(field.t[1] - field.t[0])
    for y, step in stacks + [(field.coeffs, h), (field.coeffs[1], h)]:
        _assert_local_rules_are_the_earlier_ones(y, step)


def test_make_grid_refuses_more_than_max_grid_points(monkeypatch):
    # a window of 1e12 used to end in a raw _ArrayMemoryError, and h = 1e-9
    # on a window of 1 ran for minutes
    for window, h, count in ((1e12, 1 / 64, "6.4e+13"), (1.0, 1e-9, "1e+09"),
                             (1.0, 1e-310, "inf")):
        with pytest.raises(ValueError) as err:
            cylinder.make_grid(5.0, window, h)
        assert str(err.value) == (
            f"grid of {count} points, more than MAX_GRID_POINTS = 131072 "
            f"(t0 = 5.0, window = {window!r}, h = {h!r})")
    monkeypatch.setattr(cylinder, "MAX_GRID_POINTS", 100)
    assert cylinder.make_grid(5.0, 99 * 0.25, 0.25).size == 100
    assert cylinder.make_grid(5.0, 99.4 * 0.25, 0.25).size == 100
    with pytest.raises(ValueError, match=r"^grid of 101 points, more than "
                                         r"MAX_GRID_POINTS = 100 \("):
        cylinder.make_grid(5.0, 100 * 0.25, 0.25)


def _unconverged_sweeps(starts):
    def fake(orbit, tgrid, modes, *args):
        starts.append(float(tgrid[0]))
        return np.zeros((len(modes), tgrid.size)), [1.0], [], False, 1
    return fake


def test_an_escalated_window_is_refused_before_it_is_set_up(monkeypatch):
    # t0 = 200 doubles to 400 and then to 800, where e^{1.5 t} overflows
    orbit = _fresh_orbit("conformal")
    starts = []
    monkeypatch.setattr(cylinder, "_iterate", _unconverged_sweeps(starts))
    profile = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
    with pytest.raises(cylinder.WindowError) as err:
        cylinder.contraction_construct(orbit, profile, t0=200.0)
    assert starts == [200.0, 400.0]
    assert sorted(key[0] for key in orbit._windows) == [200.0, 400.0]
    named = orbit.named(("t0", 800.0), ("window", 12.0), ("rate", 1.5))
    assert str(err.value) == (
        f"the weight e^{{nu t}} overflows on the window ({named})")


def test_the_kernel_pair_bound_falls_where_its_exponential_overflows(
        monkeypatch):
    # sigma_2 = 2.7489 on the README orbit: e^{sigma_2 window} overflows
    # past window 258.21
    conf5_orbit = _fresh_orbit("conformal")
    starts = []
    monkeypatch.setattr(cylinder, "_iterate", _unconverged_sweeps(starts))
    sigma2 = floquet.spectrum(conf5_orbit, [10.0])[10.0].sigma
    profile = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),))
    with pytest.raises(cylinder.ConstructionError):
        cylinder.contraction_construct(conf5_orbit, profile, window=258.0)
    assert starts == [5.0, 10.0, 20.0, 40.0, 80.0]
    with pytest.raises(cylinder.WindowError) as err:
        cylinder.contraction_construct(conf5_orbit, profile, window=258.5)
    named = conf5_orbit.named(("t0", 5.0), ("window", 258.5), ("rate", sigma2))
    assert str(err.value) == (
        f"the kernel pair e^{{sigma (t - t0)}} overflows on the window ({named})")
    assert len(starts) == 5
