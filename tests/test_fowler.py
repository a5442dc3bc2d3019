import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from fowlerlab import fowler


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
