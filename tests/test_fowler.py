import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import OdeSolution, quad, solve_ivp

from fowlerlab import cli, cylinder, expansion, floquet, fowler, spheres


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


def test_non_integer_dimension_is_rejected():
    # n = 5.5 used to give n = 5 with q and e taken from 5.5
    with pytest.raises(ValueError, match=r"integer dimension, got n = 5\.5"):
        fowler.FowlerParams.conformal(5.5)
    with pytest.raises(ValueError, match=r"integer dimension, got n = 5\.5"):
        fowler.FowlerParams.ckn(5.5, 0.5, 0.7)
    assert fowler.FowlerParams.conformal(5.0) == fowler.FowlerParams.conformal(5)


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


@pytest.mark.parametrize("n", [5, 8])
def test_every_orbit_function_refuses_the_degenerate_gap_alike(n):
    # max_value used to raise scipy's bracket error here for n = 8, and
    # only periodic_orbit refused by name
    p = fowler.FowlerParams.conformal(n, 1.0)
    xistar = fowler.constant_solution(p)
    eps = (1 - 1e-8) * xistar
    messages = set()
    for func in (fowler.max_value, fowler.period_quadrature,
                 fowler.periodic_orbit):
        with pytest.raises(ValueError) as info:
            func(eps, p)
        messages.add(str(info.value))
    assert messages == {
        f"eps within 1e-06*xi* of the constant solution: orbit is "
        f"numerically degenerate ({p.named(('eps', eps), ('xi*', xistar))})"}


@pytest.mark.parametrize("frac", [1e-8, 1e-120])
def test_max_value_at_the_turning_bound_to_rounding(frac):
    # G there rounds to -2.8e-17, below G(eps): scipy's brentq found no
    # sign change and raised its own error
    p = fowler.FowlerParams.conformal(3, 1.0)
    eps = frac * fowler.constant_solution(p)
    assert fowler.max_value(eps, p) == fowler.upper_turning_bound(p)


_SLOW_PARAMS = {
    "conf3": fowler.FowlerParams.conformal(3, 1.0),
    "conf5": fowler.FowlerParams.conformal(5, 1.0),
    "ckn": fowler.FowlerParams.ckn(5, 0.5, 0.7),
}


@pytest.mark.parametrize("frac", [1e-8, 1e-60, 1e-120, 1e-150])
@pytest.mark.parametrize("name", list(_SLOW_PARAMS))
def test_slow_orbit_quadrature_agrees_with_the_shot_period_or_is_refused(
        name, frac):
    # at 1e-120 xi* the integrand's power overflowed to NaN; at 1e-150 xi*
    # the quadrature read 15.8 % short with no error
    params = _SLOW_PARAMS[name]
    eps = frac * fowler.constant_solution(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shot = fowler.periodic_orbit(eps, params).period
        try:
            period = fowler.period_quadrature(eps, params)
        except fowler.IntegrationError as exc:
            assert frac < 1e-120, exc
            assert str(exc).endswith(f"({params.named(('eps', eps))})")
            return
    assert abs(period - shot) <= 1e-9 * shot


def test_slow_orbit_shoots_without_a_numpy_warning():
    # from 1e-170 xi* on (n = 3) a rejected trial step's error norm is
    # inf / inf, and numpy's invalid-value warning escaped the shooting
    params = fowler.FowlerParams.conformal(3, 1.0)
    eps = 1e-200 * fowler.constant_solution(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orb = fowler.periodic_orbit(eps, params)  # drift and peak checked
    assert math.isfinite(orb.period) and np.isfinite(orb.xi).all()


def test_orbit_domain_errors():
    p = fowler.FowlerParams.conformal(5, 1.0)
    xistar = fowler.constant_solution(p)
    with pytest.raises(ValueError, match="no periodic orbit"):
        fowler.periodic_orbit(xistar * 1.5, p)
    with pytest.raises(ValueError, match="degenerate"):
        fowler.periodic_orbit(xistar * (1 - 1e-8), p)
    with pytest.raises(ValueError):
        fowler.max_value(xistar * 2.0, p)


def test_problems_and_orbits_are_named_from_their_own_fields():
    conformal = fowler.FowlerParams.conformal(5, 2.25)
    ckn = fowler.FowlerParams.ckn(5, 0.5, 0.7)
    assert conformal.named() == "conformal problem, n = 5, k0 = 2.25"
    assert ckn.named(("t0", 800.0), ("lambda", [4.0, 10.0])) == (
        "ckn problem, n = 5, a = 0.5, b = 0.7, t0 = 800.0, lambda = [4.0, 10.0]")
    eps = 0.4 * fowler.constant_solution(ckn)
    assert fowler.periodic_orbit(eps, ckn).named(("nu", 2.4)) == (
        f"ckn problem, n = 5, a = 0.5, b = 0.7, eps = {eps!r}, nu = 2.4")
    assert fowler.constant_orbit(conformal).named() == (
        f"conformal problem, n = 5, k0 = 2.25, "
        f"xi* = {fowler.constant_solution(conformal)!r}")
    assert conformal.describe() == {
        "kind": "conformal", "n": 5, "q": 2.25, "c": 2.25, "e": 7 / 3,
        "k0": 2.25}
    assert set(ckn.describe()) == {"kind", "n", "q", "c", "e", "a", "b", "p"}


@pytest.mark.parametrize("params", [
    fowler.FowlerParams.conformal(3, 1e-225),
    fowler.FowlerParams.conformal(3, 1e300),
    fowler.FowlerParams.conformal(5, 1e-125),
    fowler.FowlerParams.conformal(5, 1e200),
    fowler.FowlerParams.conformal(8, 1e-100),
    fowler.FowlerParams.conformal(8, 1e175),
    fowler.FowlerParams.conformal(8, 1e200),
    fowler.FowlerParams.ckn(5, 0.0, 0.999999),
    fowler.FowlerParams.ckn(5, 1.49, 2.48999),
    fowler.FowlerParams.ckn(5, 1.4, 2.3999999)],
    ids=fowler.FowlerParams.named)
def test_a_problem_whose_scale_leaves_the_float_range_is_refused_by_name(
        params):
    # these ended in a raw OverflowError, RuntimeWarning or TypeError (xi
    # negative, xi ** e complex), or, where xi* underflowed to 0, in "eps
    # must be positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            fowler.periodic_orbit(0.5 * fowler.constant_solution(params),
                                  params)
    assert str(err.value).startswith(
        "the problem's scale leaves the normal float range")
    assert f"({params.named()}, xi* = " in str(err.value)


@pytest.mark.parametrize("params", [
    fowler.FowlerParams.conformal(5, 1e-100),
    fowler.FowlerParams.conformal(8, 1e-75),
    fowler.FowlerParams.ckn(5, 0.0, 0.99)],
    ids=fowler.FowlerParams.named)
def test_problems_near_the_float_range_still_shoot(params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params),
                                    params)
    assert math.isfinite(orb.period) and np.isfinite(orb.xi).all()


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_orbit_tolerance_must_be_positive_and_finite(tol):
    # a NaN or infinite tol used to reject every step of the shooting solve
    # forever, its step size NaN
    p = fowler.FowlerParams.conformal(5, 1.0)
    with pytest.raises(ValueError, match=rf"tol must be positive and finite, "
                                         rf"got tol = {re.escape(repr(tol))}"):
        fowler.periodic_orbit(0.5 * fowler.constant_solution(p), p, tol=tol)


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
    cli.write_csv(["t", "xi", "xi_prime"],
                  [conf3_orbit.t, conf3_orbit.xi, conf3_orbit.xi_prime],
                  csv_path)
    cli.write_json(fowler.orbit_to_dict(conf3_orbit), json_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,xi,xi_prime"
    payload = json.loads(json_path.read_text())
    assert payload["params"]["kind"] == "conformal"
    assert len(payload["xi"]) == len(conf3_orbit.t)
    # floats round-trip exactly
    assert payload["period"] == conf3_orbit.period


def _orbit_dict_by_keys(orbit):
    # orbit_to_dict as a hand-kept key list, before the file was read off
    # the orbit's compared fields
    return {
        "params": orbit.params.describe(),
        "epsilon": orbit.epsilon,
        "period": orbit.period,
        "energy": orbit.energy,
        "energy_drift": orbit.energy_drift,
        "is_constant": orbit.is_constant,
        "t": orbit.t.tolist(),
        "xi": orbit.xi.tolist(),
        "xi_prime": orbit.xi_prime.tolist(),
    }


_README_ORBITS = {  # (params, eps, fraction of xi*); None, None: constant
    "fowler": (fowler.FowlerParams.conformal(5, 1.0), 0.4, None),
    "fowler-constant": (fowler.FowlerParams.conformal(6, 1.0), None, None),
    "fowler-ckn": (fowler.FowlerParams.ckn(5, 0.5, 0.7), 0.3, None),
    "expand": (fowler.FowlerParams.conformal(5, 1.0), None, 0.8),
    "construct": (fowler.FowlerParams.conformal(5, 1.0), None, 0.5),
    "construct-ckn": (fowler.FowlerParams.ckn(5, 0.5, 0.7), None, 0.4),
}


@pytest.mark.parametrize("name", list(_README_ORBITS))
def test_orbit_file_holds_exactly_the_compared_fields(name, tmp_path):
    params, eps, frac = _README_ORBITS[name]
    if frac is not None:
        eps = frac * fowler.constant_solution(params)
    orb = (fowler.constant_orbit(params) if eps is None
           else fowler.periodic_orbit(eps, params))
    payload = fowler.orbit_to_dict(orb)
    assert set(payload) == {f.name for f in dataclasses.fields(orb)
                            if f.compare}
    assert payload["params"] == params.describe()
    cli.write_json(payload, tmp_path / "fields.json")
    cli.write_json(_orbit_dict_by_keys(orb), tmp_path / "keys.json")
    assert ((tmp_path / "fields.json").read_bytes()
            == (tmp_path / "keys.json").read_bytes())


@pytest.mark.parametrize("name", [k for k, v in _README_ORBITS.items()
                                  if v[1:] != (None, None)])
def test_peak_is_the_terminal_event_state(name, monkeypatch):
    # the period is twice the event time exactly, so the event's state is
    # the dense output's value at T/2 bit for bit
    params, eps, frac = _README_ORBITS[name]
    if frac is not None:
        eps = frac * fowler.constant_solution(params)
    calls = _record_solves(monkeypatch)
    orb = fowler.periodic_orbit(eps, params)
    [(_, _, _, sol)] = calls
    assert orb.period == 2.0 * sol.t_events[0][0]
    assert sol.y_events[0][0][0] == orb._dense(orb.period / 2.0, 0)


def test_constant_orbit_packaging():
    p = fowler.FowlerParams.conformal(6, 1.0)
    orb = fowler.constant_orbit(p)
    assert orb.is_constant
    assert_allclose(orb.value(3.7), fowler.constant_solution(p))
    assert_allclose(orb.derivative(1.3), 0.0)
    assert_allclose(orb.period, 2 * math.pi / math.sqrt(p.q * (p.e - 1)))


def _record_solves(monkeypatch):
    """Every `solve_ivp` call the library makes from now on, in order, as
    (module, args, kwargs, solution)."""
    calls = []
    for mod in (fowler, floquet, cylinder):
        def kept(*args, real=mod.solve_ivp, mod=mod, **kwargs):
            calls.append((mod, args, kwargs, real(*args, **kwargs)))
            return calls[-1][-1]
        monkeypatch.setattr(mod, "solve_ivp", kept)
    return calls


def _orbit_solution(orbit, monkeypatch):
    """The event-terminated shooting solve behind `orbit`, done again."""
    calls = _record_solves(monkeypatch)
    fowler.periodic_orbit(orbit.epsilon, orbit.params)
    return calls[0][-1].sol


def _kernel_solution(orbit):
    """A multi-column variational solve, like the kernel branches."""
    lams = np.array([4.0, 10.0, 18.0])
    y0 = [1.0, 0.5, -0.25, 0.3, 1.0, 2.0, orbit.epsilon, 0.0]
    return solve_ivp(floquet.variational_system(lams, orbit.params),
                     (0.0, orbit.period), y0, method="DOP853", rtol=1e-12,
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
    # chosen states per point: the same bits as those of every state
    t = points["unsorted"]
    rows = rng.integers(0, sol(t).shape[0], size=(3, t.size))
    assert np.array_equal(dense(t, rows),
                          np.take_along_axis(sol(t), rows, axis=0))


@pytest.mark.parametrize("orbit_name", ["conf5_orbit", "ckn_orbit"])
def test_orbit_reads_form_only_the_row_they_return(orbit_name, request):
    # value and derivative ask the dense output for one state row; the
    # values are bitwise those of the two-row evaluation, on the mirrored
    # half too, and a scalar t still gives a numpy scalar
    orbit = request.getfixturevalue(orbit_name)
    dense, rows = orbit._dense, []
    spy = dataclasses.replace(
        orbit, _dense=lambda t, r=None: rows.append(r) or dense(t, r))
    T = orbit.period
    for t in (0.3 * T, 0.8 * T, -0.4 * T, 2.7 * T, np.float64(0.6 * T),
              np.linspace(-T, 2.0 * T, 301)):
        tm = np.mod(t, T)
        both = dense(np.minimum(tm, T - tm))
        sign = np.where(tm > T - tm, -1.0, 1.0)
        value, slope = spy.value(t), spy.derivative(t)
        assert np.array_equal(value, both[0])
        assert np.array_equal(slope, sign * both[1])
        if np.ndim(t) == 0:
            assert type(value) is type(slope) is np.float64
    assert rows == [0, 1] * 6


def test_orbit_rhs_solve_is_bitwise_the_array_form(conf5_orbit, monkeypatch):
    # the Python-float right-hand side against its numpy form
    def array_system(params):
        return lambda t, y: np.array(
            [y[1], params.q * y[0] - params.c * y[0] ** params.e])

    orb, p = conf5_orbit, conf5_orbit.params
    got = fowler.periodic_orbit(orb.epsilon, p)
    monkeypatch.setattr(fowler, "_orbit_system", array_system)
    ref = fowler.periodic_orbit(orb.epsilon, p)
    assert got.period == ref.period
    assert np.array_equal(got.xi, ref.xi)
    assert np.array_equal(got.xi_prime, ref.xi_prime)


def _assert_same_solve(got, ref):
    """Every output of two solve_ivp results bitwise equal."""
    assert (got.status, got.message, got.nfev) == (ref.status, ref.message,
                                                   ref.nfev)
    assert np.array_equal(got.t, ref.t) and np.array_equal(got.y, ref.y)
    for events in ("t_events", "y_events"):
        a, b = getattr(got, events), getattr(ref, events)
        assert (a is None) == (b is None)
        if a is not None:
            assert len(a) == len(b)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert (got.sol is None) == (ref.sol is None)
    if ref.sol is not None:
        t = np.linspace(ref.t[0], ref.t[-1], 2048)
        assert np.array_equal(fowler.DenseSolution(got.sol)(t),
                              fowler.DenseSolution(ref.sol)(t))


def _assert_bitwise_scipy_dop853(call):
    """A library solve, as recorded, against scipy's DOP853 on its inputs."""
    _, args, kwargs, sol = call
    assert kwargs["method"] is fowler.BareDOP853
    _assert_same_solve(sol, solve_ivp(*args, **{**kwargs, "method": "DOP853"}))


_SHOT_ORBITS = {  # the README's construction orbits and a slow one
    "conformal": (fowler.FowlerParams.conformal(5, 1.0), 0.5),
    "ckn": (fowler.FowlerParams.ckn(5, 0.5, 0.7), 0.4),
    "n = 3 at 1e-6 xi*": (fowler.FowlerParams.conformal(3, 1.0), 1e-6),
}


@pytest.mark.parametrize("name", list(_SHOT_ORBITS))
def test_shooting_solve_is_bitwise_scipy_dop853(name, monkeypatch):
    params, frac = _SHOT_ORBITS[name]
    calls = _record_solves(monkeypatch)
    fowler.periodic_orbit(frac * fowler.constant_solution(params), params)
    [call] = calls
    assert call[0] is fowler and call[2]["max_step"] < math.inf
    _assert_bitwise_scipy_dop853(call)
    # rejected steps were taken: the start costs 2 evaluations, an accepted
    # step 12 and its dense output 3, a rejected step 12
    sol = call[-1]
    assert sol.nfev > 15 * (len(sol.t) - 1) + 2


@pytest.mark.parametrize("name", ["conformal", "ckn"])
def test_kernel_and_pair_solves_are_bitwise_scipy_dop853(name, monkeypatch):
    # the kernel branches of degrees 1..3 in one solve of 3 columns and one
    # orbit per piece, and the mode-0 fundamental pair, 2 columns and one
    # orbit per piece, started at t = 0 for the window at t0 = 5
    params, frac = _SHOT_ORBITS[name]
    orb = fowler.periodic_orbit(frac * fowler.constant_solution(params), params)
    calls = _record_solves(monkeypatch)
    lams = [float(spheres.eigenvalue(k, params.n)) for k in (1, 2, 3)]
    floquet.spectrum(orb, lams, with_factors=True)
    cylinder.ModeSolveContext(orb, 0.0, cylinder.make_grid())
    kernel, pair = calls
    assert kernel[0] is floquet and kernel[-1].y.shape[0] == (
        2 * 3 * floquet.KERNEL_PIECES + 2 * floquet.KERNEL_PIECES)
    assert pair[0] is cylinder and pair[1][1][0] == 0.0
    assert pair[-1].y.shape[0] == (2 * 2 * floquet.KERNEL_PIECES
                                   + 2 * floquet.KERNEL_PIECES)
    for call in calls:
        _assert_bitwise_scipy_dop853(call)


@pytest.mark.parametrize("dense_output", [False, True])
def test_failed_solve_is_bitwise_scipy_dop853(dense_output):
    # y' = y^2, y(0) = 1 blows up at t = 1: near there the step size falls
    # below the spacing of floats
    got, ref = (solve_ivp(lambda t, y: y * y, (0.0, 2.0), [1.0], method=m,
                          rtol=1e-10, atol=1e-12, dense_output=dense_output)
                for m in (fowler.BareDOP853, "DOP853"))
    assert got.status == -1 and abs(got.t[-1] - 1.0) < 1e-4
    _assert_same_solve(got, ref)


@pytest.mark.parametrize("name", ["conformal", "ckn"])
def test_results_carry_their_integrator_work(name, monkeypatch):
    params, frac = _SHOT_ORBITS[name]
    calls = _record_solves(monkeypatch)
    orb = fowler.periodic_orbit(frac * fowler.constant_solution(params), params)
    lams = [float(spheres.eigenvalue(k, params.n)) for k in (1, 2)]
    data = floquet.spectrum(orb, lams, with_factors=True)
    grid = cylinder.make_grid()
    pair = cylinder.ModeSolveContext(orb, 0.0, grid)
    hyperbolic = cylinder.ModeSolveContext(orb, lams[0], grid)
    shoot, kernel, pair_solve = (call[-1] for call in calls)

    def work(sol):
        return int(sol.nfev), len(sol.t) - 1
    assert (orb.rhs_evals, orb.steps) == work(shoot)
    for d in [*data.values(), floquet.mode_datum(orb, 1, lams[0], 1)]:
        assert (d.kernel_rhs_evals, d.kernel_steps) == work(kernel)
    assert (pair.pair_rhs_evals, pair.pair_steps) == work(pair_solve)
    assert (pair.datum.kernel_rhs_evals, pair.datum.kernel_steps) == (0, 0)
    assert (hyperbolic.pair_rhs_evals, hyperbolic.pair_steps) == (0, 0)
    # counts stay out of the result files and out of orbit equality
    assert not {"rhs_evals", "steps"} & set(fowler.orbit_to_dict(orb))
    assert not {"kernel_rhs_evals", "kernel_steps"} & set(data[lams[0]].to_dict())
    assert {f.name for f in dataclasses.fields(fowler.FowlerOrbit)
            if not f.compare} >= {"rhs_evals", "steps"}
    const = fowler.constant_orbit(params)
    assert (const.rhs_evals, const.steps) == (0, 0)


def test_error_norm_is_bitwise_scipy_dop853():
    # sqrt(x.dot(x)) ** 2 for numpy's norm squared: x.dot(x) alone differs
    # in the last bit on some draws
    solver = fowler.BareDOP853(lambda t, y: -y, 0.0, np.ones(6), 1.0)
    rng = np.random.default_rng(5)
    for _ in range(500):
        solver.K[:] = rng.normal(size=solver.K.shape) * 10.0 ** rng.integers(
            -12, 3)
        h, scale = rng.uniform(1e-3, 1.0), rng.uniform(1e-14, 1e-6, 6)
        assert solver._error_norm(h, scale) == solver._estimate_error_norm(
            solver.K, h, scale)


@pytest.mark.parametrize("y0, vectorized", [([1.0 + 1.0j], False),
                                           ([1.0], True)])
def test_stepper_refuses_what_it_does_not_repeat(y0, vectorized):
    # its error norm is the real-vector one; its right-hand side takes (n,)
    with pytest.raises(ValueError, match="real state and a non-vectorized"):
        solve_ivp(lambda t, y: -y, (0.0, 1.0), y0, method=fowler.BareDOP853,
                  vectorized=vectorized)


def test_dense_solution_refuses_descending_solves():
    p = fowler.FowlerParams.conformal(5)
    sol = solve_ivp(fowler._orbit_system(p), (1.0, 0.0), [1.0, 0.0],
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
                       match=r"Hamiltonian drift .* "
                             + re.escape(f"({params.named(('eps', eps))})")):
        fowler.periodic_orbit(eps, params)


def test_shooting_errors_name_the_orbit(monkeypatch):
    # a solve that never turns back, and a maximum off the energy level
    params = fowler.FowlerParams.ckn(5, 0.5, 0.7)
    eps = 0.4 * fowler.constant_solution(params)
    where = re.escape(f"({params.named(('eps', eps))})")
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


def _expm1_log1p_ratio_vectorized(y, scale):
    """Reference: the whole-array form the quadrature integrand once used."""
    y = np.asarray(y, dtype=float)
    x = scale * np.log1p(y)
    small_y = np.abs(y) < 1e-8
    log_ratio = np.where(small_y, 1.0 - y / 2.0 + y * y / 3.0,
                         np.log1p(np.where(small_y, 1.0, y))
                         / np.where(small_y, 1.0, y))
    small_x = np.abs(x) < 1e-8
    exp_ratio = np.where(small_x, 1.0 + x / 2.0 + x * x / 6.0,
                         np.expm1(np.where(small_x, 1.0, x))
                         / np.where(small_x, 1.0, x))
    return scale * log_ratio * exp_ratio


@pytest.mark.parametrize("scale", [0.5, 2.4, 8.0 / 3.0, 4.0])
def test_scalar_ratio_matches_the_vectorized_form(scale):
    # both series branches, each alone (scale 0.5 makes |x| < 1e-8 <= |y|),
    # and the direct forms on either side of them
    ys = [0.0, 1e-12, -3e-10, 5e-9, -9.9e-9, 1.5e-8, -1.9e-8, 1e-8, 3e-7,
          1e-3, -0.25, 0.7, 3.0, -0.999]
    for y in ys:
        got = fowler._expm1_log1p_ratio(y, scale)
        assert got == float(_expm1_log1p_ratio_vectorized(y, scale)), y
    if scale < 1.0:
        assert any(abs(scale * math.log1p(y)) < 1e-8 <= abs(y) for y in ys)


@pytest.mark.parametrize("params", [
    fowler.FowlerParams.conformal(3, 1.0),
    fowler.FowlerParams.conformal(5, 1.0),
    fowler.FowlerParams.ckn(5, 0.5, 0.7)], ids=["conf3", "conf5", "ckn"])
def test_period_quadrature_is_bitwise_that_of_the_vectorized_ratio(
        params, monkeypatch):
    xistar = fowler.constant_solution(params)
    eps_list = [f * xistar for f in (1e-5, 1e-3, 0.2, 0.5, 0.8, 0.9999)]
    if params.kind == "ckn":
        flat = fowler.FowlerParams.ckn(5, 0.0, 0.0)
        cases = [(e, params) for e in eps_list] + [
            (10.0 ** -k, flat) for k in range(1, 5)]
    else:
        cases = [(e, params) for e in eps_list]
    got = [fowler.period_quadrature(e, p) for e, p in cases]
    monkeypatch.setattr(fowler, "_expm1_log1p_ratio",
                        _expm1_log1p_ratio_vectorized)
    assert got == [fowler.period_quadrature(e, p) for e, p in cases]


def _two_closure_period_quadrature(epsilon, params):
    # the integrand at each turning point as its own closure, before one
    # factory took the turning point and a sign
    xistar = fowler._check_epsilon(epsilon, params)
    smax = fowler.max_value(epsilon, params)
    q, c, e = params.q, params.c, params.e
    ratio_of = fowler._expm1_log1p_ratio

    def left(u):
        u2 = u * u
        s = epsilon + u2
        ratio = ratio_of(u2 / epsilon, e + 1.0)
        val = q * (s + epsilon) - (2.0 * c / (e + 1.0)) * epsilon**e * ratio
        return 2.0 / np.sqrt(val)

    def right(u):
        u2 = u * u
        s = smax - u2
        ratio = ratio_of(-u2 / smax, e + 1.0)
        val = -q * (s + smax) + (2.0 * c / (e + 1.0)) * smax**e * ratio
        return 2.0 / np.sqrt(val)

    i_left, _ = quad(left, 0.0, math.sqrt(xistar - epsilon), epsabs=1e-13,
                     epsrel=1e-12, limit=200)
    i_right, _ = quad(right, 0.0, math.sqrt(smax - xistar), epsabs=1e-13,
                      epsrel=1e-12, limit=200)
    return 2.0 * (i_left + i_right)


@pytest.mark.parametrize("params", [
    fowler.FowlerParams.conformal(3, 1.0),
    fowler.FowlerParams.conformal(5, 1.0),
    fowler.FowlerParams.ckn(5, 0.5, 0.7)], ids=["conf3", "conf5", "ckn"])
def test_period_quadrature_is_bitwise_the_two_closure_form(params):
    xistar = fowler.constant_solution(params)
    for frac in (1e-5, 1e-3, 0.1, 0.5, 0.9, 0.9999):
        eps = frac * xistar
        assert (fowler.period_quadrature(eps, params)
                == _two_closure_period_quadrature(eps, params)), frac
