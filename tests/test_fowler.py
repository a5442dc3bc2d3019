import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import OdeSolution, solve_ivp

from fowlerlab import cylinder, expansion, floquet, fowler


def test_constant_solution_examples():
    p3 = fowler.FowlerParams.conformal(3, 1.0)
    assert_allclose(fowler.constant_solution(p3), 0.25 ** 0.25, rtol=1e-15)
    p6 = fowler.FowlerParams.conformal(6, 4.0)
    assert_allclose(fowler.constant_solution(p6), 1.0, rtol=1e-15)
    pc = fowler.FowlerParams.ckn(5, 0.0, 0.0)
    # q = 9/4, e - 1 = p - 2 = 4/3, so xi* = (9/4)^{3/4}
    assert_allclose(fowler.constant_solution(pc), (9.0 / 4.0) ** 0.75,
                    rtol=1e-15)


def test_ckn_parameter_validation():
    with pytest.raises(ValueError):
        fowler.FowlerParams.ckn(5, -0.1, 0.0)
    with pytest.raises(ValueError):
        fowler.FowlerParams.ckn(5, 1.5, 1.5)  # a >= (n-2)/2
    with pytest.raises(ValueError):
        fowler.FowlerParams.ckn(5, 0.5, 1.6)  # b >= a + 1
    with pytest.raises(ValueError):
        fowler.FowlerParams.ckn(5, 0.5, 0.4)  # b < a
    p = fowler.FowlerParams.ckn(5, 0.5, 0.7)
    assert_allclose(p.p, 10.0 / 3.4, rtol=1e-15)
    assert_allclose(p.q, 1.0, rtol=1e-15)


def test_hamiltonian_examples():
    p = fowler.FowlerParams.conformal(5, 1.0)
    xistar = fowler.constant_solution(p)
    assert fowler.hamiltonian(xistar, 0.0, p) < 0.0
    # CKN specialization matches the explicit form
    pc = fowler.FowlerParams.ckn(5, 0.0, 0.0)
    eps = 0.7
    expected = -(5 - 0 - 2) ** 2 / 8.0 * eps**2 + eps**pc.p / pc.p
    assert_allclose(fowler.hamiltonian(eps, 0.0, pc), expected, rtol=1e-14)
    assert abs(fowler.hamiltonian(1e-12, 0.0, p)) < 1e-23


def test_orbit_domain_errors():
    p = fowler.FowlerParams.conformal(5, 1.0)
    xistar = fowler.constant_solution(p)
    with pytest.raises(ValueError, match="no periodic orbit"):
        fowler.periodic_orbit(xistar * 1.5, p)
    with pytest.raises(ValueError, match="degenerate"):
        fowler.periodic_orbit(xistar * (1 - 1e-8), p)
    with pytest.raises(ValueError):
        fowler.max_value(xistar * 2.0, p)


def test_small_oscillation_limit():
    # linearizing at xi* gives angular frequency sqrt(q (e-1))
    p = fowler.FowlerParams.conformal(3, 1.0)
    eps = fowler.constant_solution(p) * (1 - 1e-4)
    t_quad = fowler.period_quadrature(eps, p)
    assert abs(t_quad / fowler.small_oscillation_period(p) - 1.0) < 1e-3


def test_max_value_against_scalar_oracle(conf3_orbit):
    p = conf3_orbit.params
    eps = conf3_orbit.epsilon
    # oracle: bisection on -(q/2)s^2 + (c/(e+1))s^{e+1} = H(eps, 0), s > xi*
    h0 = fowler.hamiltonian(eps, 0.0, p)

    def g(s):
        return -0.5 * p.q * s * s + p.c / (p.e + 1) * s ** (p.e + 1) - h0

    lo = fowler.constant_solution(p)
    hi = 5.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    assert abs(fowler.max_value(eps, p) - oracle) < 1e-10
    assert abs(float(conf3_orbit.value(conf3_orbit.period / 2)) - oracle) < 1e-8


def test_max_value_below_upper_turning_bound():
    pc = fowler.FowlerParams.ckn(5, 0.0, 0.0)
    bound = fowler.upper_turning_bound(pc)
    for eps in (0.2, 0.8, 1.4):
        assert fowler.constant_solution(pc) < fowler.max_value(eps, pc) < bound


@pytest.mark.parametrize("params", [
    fowler.FowlerParams.conformal(3, 1.0),
    fowler.FowlerParams.conformal(5, 2.25),
    fowler.FowlerParams.ckn(5, 0.5, 0.7),
])
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_orbit_sweep_invariants(params, frac):
    xistar = fowler.constant_solution(params)
    orb = fowler.periodic_orbit(frac * xistar, params, tol=1e-11)
    # energy conservation
    h = fowler.hamiltonian(orb.xi, orb.xi_prime, params)
    assert np.max(np.abs(h - orb.energy)) < 1e-9
    # quadrature agrees with shooting
    assert abs(fowler.period_quadrature(orb.epsilon, params) / orb.period
               - 1.0) < 1e-6
    # monotone up then down
    half = len(orb.t) // 2
    assert np.all(np.diff(orb.xi[:half - 1]) > 0)
    assert np.all(np.diff(orb.xi[half + 1:]) < 0)
    # even about the maximum
    assert np.max(np.abs(orb.value(orb.period - orb.t) - orb.xi)) < 1e-8
    # phase-plane bound for the conformal branch
    if params.kind == "conformal":
        n = params.n
        powv = params.c * orb.xi ** (4.0 / (n - 2))
        assert np.all(powv > 0)
        assert np.max(powv) < n * (n - 2) / 4.0


@pytest.mark.parametrize("orbit_name", ["conf3_orbit", "conf5_orbit",
                                        "ckn_orbit"])
def test_half_period_orbit_matches_full_period_solve(orbit_name, request):
    # reference: the Fowler ODE integrated directly over a whole period
    orb = request.getfixturevalue(orbit_name)
    p, T = orb.params, orb.period
    sol = solve_ivp(lambda t, y: [y[1], p.q * y[0] - p.c * y[0] ** p.e],
                    (0.0, T), [orb.epsilon, 0.0], method="DOP853",
                    rtol=1e-10 / 30.0, atol=1e-10 / 3000.0, dense_output=True,
                    max_step=T / 16.0)
    t = np.linspace(0.0, 3.0 * T, 1537)
    ref = sol.sol(np.mod(t, T))
    assert np.max(np.abs(orb.value(t) - ref[0])) < 1e-9 * np.max(np.abs(ref[0]))
    assert (np.max(np.abs(orb.derivative(t) - ref[1]))
            < 1e-9 * np.max(np.abs(ref[1])))
    # samples: xi even and xi' odd about T/2, exactly
    assert np.array_equal(orb.xi, orb.xi[::-1])
    assert np.array_equal(orb.xi_prime, -orb.xi_prime[::-1])
    # the folded interpolant mirrors the same way, to the rounding of T - t
    s = np.linspace(0.0, T, 301)
    assert_allclose(orb.value(T - s), orb.value(s), rtol=1e-14)
    assert_allclose(orb.derivative(T - s), -orb.derivative(s),
                    atol=1e-13 * np.max(np.abs(orb.xi_prime)))


def test_log_growth_of_period():
    pc = fowler.FowlerParams.ckn(5, 0.0, 0.0)
    eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
    periods = [fowler.period_quadrature(e, pc) for e in eps_list]
    ratios = [T / (-math.log(e)) for T, e in zip(periods, eps_list)]
    steps = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    assert steps[1] < steps[0] and steps[2] < steps[1]
    slope = np.polyfit([-math.log(e) for e in eps_list], periods, 1)[0]
    assert abs(slope - 2.0 / math.sqrt(pc.q)) < 0.01


def test_orbit_export(tmp_path, conf3_orbit):
    csv_path = tmp_path / "orbit.csv"
    json_path = tmp_path / "orbit.json"
    fowler.orbit_to_csv(conf3_orbit, csv_path)
    fowler.orbit_to_json(conf3_orbit, json_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,xi,xi_prime"
    payload = json.loads(json_path.read_text())
    assert payload["params"]["kind"] == "conformal"
    assert len(payload["xi"]) == len(conf3_orbit.t)
    # floats round-trip exactly
    assert payload["period"] == conf3_orbit.period


def test_constant_orbit_packaging():
    p = fowler.FowlerParams.conformal(6, 1.0)
    orb = fowler.constant_orbit(p)
    assert orb.is_constant
    assert_allclose(orb.value(3.7), fowler.constant_solution(p))
    assert_allclose(orb.derivative(1.3), 0.0)
    assert_allclose(orb.period, 2 * math.pi / math.sqrt(p.q * (p.e - 1)))


def _orbit_solution(orbit, monkeypatch):
    """The event-terminated shooting solve behind `orbit`, done again."""
    solves, real = [], fowler.solve_ivp

    def kept(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]
    monkeypatch.setattr(fowler, "solve_ivp", kept)
    fowler.periodic_orbit(orbit.epsilon, orbit.params)
    return solves[0].sol


def _kernel_solution(orbit):
    """A multi-column variational solve, like the kernel branches."""
    lams = np.array([4.0, 10.0, 18.0])
    y0 = [1.0, 0.5, -0.25, 0.3, 1.0, 2.0, orbit.epsilon, 0.0]
    return solve_ivp(floquet.variational_rhs, (0.0, orbit.period), y0,
                     args=(lams, orbit.params), method="DOP853", rtol=1e-12,
                     atol=1e-14, dense_output=True).sol


@pytest.mark.parametrize("which", ["orbit", "kernel"])
def test_dense_solution_is_bitwise_scipy(which, conf5_orbit, monkeypatch):
    sol = (_orbit_solution(conf5_orbit, monkeypatch) if which == "orbit"
           else _kernel_solution(conf5_orbit))
    dense = fowler.DenseSolution(sol)
    lo, hi = sol.t_min, sol.t_max
    rng = np.random.default_rng(3)
    inside = rng.uniform(lo, hi, 701)
    points = {
        "sorted": np.sort(inside),
        "unsorted": inside,
        "repeated": np.repeat(inside[:40], 3)[rng.permutation(120)],
        "knots": sol.ts,
        "knots reversed": sol.ts[::-1],
        "past both ends": np.array([hi + 0.7, lo - 0.7, lo - 1e-9, hi + 1e-9]),
        "scalar": np.float64(0.37 * hi),
        "float": 0.37 * hi,
        "0-d knot": np.array(sol.ts[3]),
        "scalar past the end": hi + 0.5,
    }
    for name, t in points.items():
        # array_equal also compares shapes: (states,) for a scalar
        assert np.array_equal(dense(t), sol(t)), name


def test_orbit_rhs_solve_is_bitwise_the_array_form(conf5_orbit, monkeypatch):
    # the Python-float right-hand side against its numpy form
    def array_rhs(t, y, params):
        return np.array([y[1], params.q * y[0] - params.c * y[0] ** params.e])

    orb, p = conf5_orbit, conf5_orbit.params
    got = fowler.periodic_orbit(orb.epsilon, p)
    monkeypatch.setattr(fowler, "_rhs", array_rhs)
    ref = fowler.periodic_orbit(orb.epsilon, p)
    assert got.period == ref.period
    assert np.array_equal(got.xi, ref.xi)
    assert np.array_equal(got.xi_prime, ref.xi_prime)


def test_dense_solution_refuses_descending_solves():
    p = fowler.FowlerParams.conformal(5)
    sol = solve_ivp(fowler._rhs, (1.0, 0.0), [1.0, 0.0], args=(p,),
                    method="DOP853", dense_output=True).sol
    with pytest.raises(ValueError, match="ascending"):
        fowler.DenseSolution(sol)


def test_no_dense_output_goes_through_scipy(monkeypatch):
    # every dense output of the library is read through DenseSolution;
    # OdeSolution's per-segment loop is never reached
    def refuse(self, t):
        raise AssertionError("OdeSolution.__call__ reached")
    monkeypatch.setattr(OdeSolution, "__call__", refuse)
    # the conf5_orbit parameters, on a fresh orbit with nothing stored yet
    params = fowler.FowlerParams.conformal(5, 1.0)
    orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params), params)
    data = floquet.spectrum(orb, [0.0, 4.0, 10.0], with_factors=True)
    assert data[4.0].q_plus is not None and data[10.0].q_plus is not None
    grid = cylinder.make_grid(5.0, 12.0, 1.0 / 64.0)
    ctx = cylinder.ModeSolveContext(orb, 0.0, grid)
    assert ctx.datum.type == floquet.TYPE_II and np.all(np.isfinite(ctx.u))
    sol = expansion.solve_resonant_mode(lambda t: np.ones_like(t), 1.0,
                                        floquet.ModeOperator(orb, 4.0))
    assert sol.resonant


def test_small_neck_drift_names_the_orbit():
    # the n = 8 orbit at 1e-3 xi* fails the Hamiltonian drift check
    params = fowler.FowlerParams.conformal(8, 1.0)
    eps = 1e-3 * fowler.constant_solution(params)
    with pytest.raises(fowler.IntegrationError,
                       match=r"Hamiltonian drift .* \(conformal n = 8, "
                             rf"eps = {re.escape(repr(eps))}\)"):
        fowler.periodic_orbit(eps, params)


def test_shooting_errors_name_the_orbit(monkeypatch):
    # a solve that never turns back, and a maximum off the energy level
    params = fowler.FowlerParams.ckn(5, 0.5, 0.7)
    eps = 0.4 * fowler.constant_solution(params)
    where = rf"\(ckn n = 5, eps = {re.escape(repr(eps))}\)"
    real = fowler.solve_ivp

    def no_event(*args, **kwargs):
        sol = real(*args, **kwargs)
        sol.t_events = [np.array([])]
        return sol
    monkeypatch.setattr(fowler, "solve_ivp", no_event)
    with pytest.raises(fowler.IntegrationError,
                       match=rf"no return to xi' = 0 .*{where}; last"):
        fowler.periodic_orbit(eps, params)
    monkeypatch.setattr(fowler, "solve_ivp", real)
    monkeypatch.setattr(fowler, "max_value", lambda e, p: 2.0)
    with pytest.raises(fowler.IntegrationError,
                       match=rf"orbit maximum .* root 2 {where}"):
        fowler.periodic_orbit(eps, params)
