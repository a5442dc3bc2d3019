import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from fowlerlab import cylinder, floquet, fowler, spheres


def test_constant_orbit_monodromy_closed_form(const5_orbit):
    lam = 10.0
    op = floquet.ModeOperator(const5_orbit, lam)
    m = floquet.monodromy([op])[0][0]
    # eigenvalues e^{+-rho T} with rho^2 = lambda + q(1-e) = lambda - n + 2
    rho = math.sqrt(lam - 5 + 2)
    T = const5_orbit.period
    evals = np.sort(np.linalg.eigvals(m))
    # the small eigenvalue of a large-entry matrix carries absolute rounding
    # ~ eps * ||M||, so compare it at matching absolute accuracy
    assert_allclose(np.sort([math.exp(-rho * T), math.exp(rho * T)]), evals,
                    rtol=1e-10, atol=1e-11 * float(np.abs(m).max()))


def test_nonconstant_mode1_trace(conf5_orbit):
    # sigma = 1 exactly for the degree-1 modes, so tr M = e^T + e^{-T}
    op = floquet.ModeOperator(conf5_orbit, 4.0)
    m = floquet.monodromy([op])[0][0]
    T = conf5_orbit.period
    assert abs(np.trace(m) - (math.exp(T) + math.exp(-T))) < 1e-6 * math.exp(T)


def test_determinant_is_one(conf3_orbit, ckn_orbit):
    rng = np.random.default_rng(11)
    pairs = [(conf3_orbit, lam) for lam in rng.uniform(0.5, 12.0, 10)]
    pairs += [(ckn_orbit, lam) for lam in rng.uniform(0.5, 12.0, 10)]
    for orbit, lam in pairs:
        _, (det,), _, _ = floquet.monodromy([floquet.ModeOperator(orbit,
                                                                  float(lam))])
        assert abs(det - 1.0) < 1e-9


def test_classify_rotation_cases(ckn_const_orbit):
    # conformal constant, mode 0: rotation number sqrt(n-2)
    p = fowler.FowlerParams.conformal(6, 1.0)
    orb = fowler.constant_orbit(p)
    d = floquet.mode_datum(orb, 0, 0.0, 0)
    assert d.type == floquet.TYPE_IV
    assert_allclose(d.omega, math.sqrt(6 - 2), rtol=1e-12)
    # CKN constant, mode 0: omega = (n - 2a - 2) sqrt(p-2) / 2
    params = ckn_const_orbit.params
    d0 = floquet.mode_datum(ckn_const_orbit, 0, 0.0, 0)
    expected = (params.n - 2 * params.a - 2) * math.sqrt(params.p - 2) / 2.0
    assert d0.type == floquet.TYPE_IV
    assert_allclose(d0.omega, expected, rtol=1e-12)


def test_classify_synthetic_matrices():
    # hyperbolic
    c = floquet.classify(np.diag([math.exp(2.0), math.exp(-2.0)]), 1.0)
    assert c.type == floquet.TYPE_III and abs(c.sigma - 2.0) < 1e-12
    # elliptic
    th = 0.7
    rot = np.array([[math.cos(th), math.sin(th)],
                    [-math.sin(th), math.cos(th)]])
    c = floquet.classify(rot, 1.0)
    assert c.type == floquet.TYPE_IV and abs(c.omega - th) < 1e-12
    # unit eigenvalue, diagonal vs Jordan block
    assert floquet.classify(np.eye(2), 1.0).type == floquet.TYPE_I
    assert floquet.classify(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0).type \
        == floquet.TYPE_II
    with pytest.raises(ValueError, match="determinant"):
        floquet.classify(np.diag([2.0, 1.0]), 1.0)


def test_mode0_kernel_contains_orbit_derivative():
    # L_0 xi' = 0; checked through spectral differentiation of the samples
    # (a tight integration tolerance keeps the k^2-amplified sampling noise
    # below the 1e-8 bar)
    params = fowler.FowlerParams.conformal(5, 1.0)
    orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params),
                                params, tol=1e-12)
    d0 = floquet.mode_datum(orb, 0, 0.0, 0)
    assert d0.type == floquet.TYPE_II
    y = orb.xi_prime[:-1]
    T = orb.period
    k = np.fft.rfftfreq(y.size, d=T / y.size) * 2 * np.pi
    coeffs = np.fft.rfft(y)
    coeffs[np.abs(coeffs) < 1e-13 * np.max(np.abs(coeffs))] = 0.0
    ypp = np.fft.irfft((1j * k) ** 2 * coeffs, n=y.size)
    op = floquet.ModeOperator(orb, 0.0)
    residual = -ypp + op.potential(orb.t[:-1]) * y
    assert np.max(np.abs(residual)) < 1e-8


def test_mode0_coupling_matches_period_derivative(ckn_orbit):
    # the t-term coefficient equals -dT/deps / T (independent oracle:
    # centered difference of the period quadrature)
    orb = ckn_orbit
    d0 = floquet.mode_datum(orb, 0, 0.0, 0)
    de = 1e-6
    p = orb.params
    tp = (fowler.period_quadrature(orb.epsilon + de, p)
          - fowler.period_quadrature(orb.epsilon - de, p)) / (2 * de)
    assert abs(d0.coupling - (-tp / orb.period)) < 1e-5


def test_exponent_sequence_constant(const5_orbit):
    data = floquet.exponent_sequence(const5_orbit, 6)
    assert_allclose([d.sigma for d in data[:5]], np.ones(5), atol=1e-12)
    assert_allclose(data[5].sigma, math.sqrt(7.0), rtol=1e-12)


def test_exponent_sequence_ckn_constant(ckn_const_orbit):
    params = ckn_const_orbit.params
    data = floquet.exponent_sequence(ckn_const_orbit, 12)
    for d in data:
        expected = math.sqrt(d.lam - (params.p - 2) * (params.n - 2 * params.a
                                                       - 2) ** 2 / 4.0)
        assert abs(d.sigma - expected) < 1e-12


def test_exponent_sequence_nonconstant_unit_exponents(conf3_orbit, conf6_orbit):
    for orb in (conf3_orbit, conf6_orbit):
        n = orb.params.n
        data = floquet.exponent_sequence(orb, n)
        assert max(abs(d.sigma - 1.0) for d in data) < 1e-6


def test_kernel_basis_matches_translate_derivative(conf5_orbit):
    orb = conf5_orbit
    d1 = floquet.mode_datum(orb, 1, 4.0, 1, with_factors=True)
    t = orb.t
    p_plus = 1.5 * orb.xi - orb.xi_prime
    p_minus = 1.5 * orb.xi + orb.xi_prime
    assert np.max(np.abs(d1.q_plus(t) - p_plus / p_plus[0])) < 1e-6
    assert np.max(np.abs(d1.q_minus(t) - p_minus / p_minus[0])) < 1e-6
    assert d1.periodicity_defect < 1e-6


def test_kernel_factors_solve_mode_equation_at_degree_two(conf5_orbit):
    # e^{+-sigma t} L(q+- e^{-+sigma t}) = -q'' +- 2 sigma q' - sigma^2 q + V q
    # vanishes; derivatives by FFT of the 256 output samples
    orb = conf5_orbit
    lam = float(spheres.eigenvalue(2, orb.params.n))
    d = floquet.mode_datum(orb, 0, lam, 2, with_factors=True)
    T, sigma = orb.period, d.sigma
    ts = np.arange(256) * (T / 256)
    v = floquet.ModeOperator(orb, lam).potential(ts)
    k = np.fft.rfftfreq(256, d=T / 256) * 2 * np.pi
    for q_fn, sign in ((d.q_plus, 1.0), (d.q_minus, -1.0)):
        q = q_fn(ts)
        dq = np.fft.irfft(1j * k * np.fft.rfft(q), n=256)
        d2q = np.fft.irfft(-k * k * np.fft.rfft(q), n=256)
        res = -d2q + sign * 2.0 * sigma * dq - sigma**2 * q + v * q
        scale = np.max(np.abs(q)) * (sigma**2 + np.max(np.abs(v)))
        assert np.max(np.abs(res)) < 1e-7 * scale


def test_overflowing_branch_raises_typed_error():
    # n = 3 at eps = 1e-6 xi* (T = 60.5): degree 6 (lambda = 42) is the
    # lowest mode whose period growth overflows the eigenvector computation
    params = fowler.FowlerParams.conformal(3, 1.0)
    orb = fowler.periodic_orbit(1e-6 * fowler.constant_solution(params),
                                params)
    with pytest.raises(fowler.IntegrationError, match=r"n = 3.*lambda = 42"):
        floquet.mode_datum(orb, 0, 42.0, 6, with_factors=True)


@pytest.mark.parametrize("orbit_name, degree", [
    ("conf5_orbit", 1), ("conf5_orbit", 2), ("ckn_orbit", 1), ("ckn_orbit", 2)])
def test_mirrored_q_plus_matches_backward_integration(orbit_name, degree,
                                                      request):
    # reference: the decaying branch integrated backward from T, where it
    # grows, starting from the small eigenvector of the monodromy
    orb = request.getfixturevalue(orbit_name)
    lam = float(spheres.eigenvalue(degree, orb.params.n))
    d = floquet.mode_datum(orb, 0, lam, degree, with_factors=True)
    T, m = orb.period, d.monodromy
    tr = float(np.trace(m))
    w_small = floquet._eigvec(m, 2.0 / (tr + math.sqrt(tr * tr - 4.0)))
    sol = solve_ivp(floquet.variational_rhs, (T, 0.0),
                    [w_small[0], w_small[1], orb.epsilon, 0.0],
                    args=(lam, orb.params), method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    ref = np.exp(d.sigma * (orb.t - T)) * sol.sol(orb.t)[0]
    got = d.q_plus(orb.t)
    assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref))


def test_determinant_failure_is_typed_error(conf5_orbit, monkeypatch):
    monkeypatch.setattr(floquet, "monodromy",
                        lambda ops: ([np.eye(2)], [2.0], [256], [0.0]))
    with pytest.raises(fowler.IntegrationError,
                       match=r"determinant.*n = 5.*lambda = 7\.25") as info:
        floquet.mode_datum(conf5_orbit, 0, 7.25, 1)
    assert isinstance(info.value.__cause__, ValueError)
    assert 7.25 not in conf5_orbit._floquet


def test_kernel_branch_failure_names_the_parameters(conf5_orbit, monkeypatch):
    d = floquet.spectrum(conf5_orbit, [4.0, 10.0])
    ops = [floquet.ModeOperator(conf5_orbit, lam) for lam in d]
    monkeypatch.setattr(floquet, "solve_ivp",
                        lambda *a, **k: SimpleNamespace(success=False))
    with pytest.raises(fowler.IntegrationError,
                       match=r"kernel branch.*\(n = 5, eps = .*, "
                             r"lambda = 4\.0, 10\.0\)"):
        floquet.kernel_basis(ops, list(d.values()))


def test_spectrum_returns_the_kept_data_by_eigenvalue(monkeypatch):
    params = fowler.FowlerParams.conformal(5, 1.0)
    orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params), params)
    batches = []
    real = floquet.monodromy
    monkeypatch.setattr(floquet, "monodromy", lambda ops: batches.append(
        [op.lam for op in ops]) or real(ops))
    data = floquet.spectrum(orb, [10, 4.0, 4])
    assert list(data) == [4.0, 10.0] and batches == [[4.0, 10.0]]
    assert all(orb._floquet[lam] is d for lam, d in data.items())
    assert all(d.q_plus is None for d in data.values())
    again = floquet.spectrum(orb, [0.0, 10.0], with_factors=True)
    assert batches == [[4.0, 10.0], [0.0]] and again[10.0] is data[10.0]
    assert again[10.0].q_plus is not None and data[4.0].q_plus is None
    copy = floquet.mode_datum(orb, 6, 10.0, 2)
    assert copy is not data[10.0] and (copy.index, copy.degree) == (6, 2)
    assert copy.sigma == data[10.0].sigma and len(batches) == 2


def test_kernel_basis_constant_orbit_trivial(const5_orbit):
    d = floquet.mode_datum(const5_orbit, 6, 10.0, 2, with_factors=True)
    assert_allclose(d.q_plus(const5_orbit.t), 1.0, atol=1e-14)


def test_kernel_basis_requires_type_three(conf5_orbit):
    d0 = floquet.mode_datum(conf5_orbit, 0, 0.0, 0)
    with pytest.raises(ValueError, match="Type III"):
        floquet.kernel_basis([floquet.ModeOperator(conf5_orbit, 0.0)], [d0])


def test_growth_rate_cross_check(conf6_orbit):
    # integrate L_i h = 0 forward over 5 periods from generic data and fit
    # log|h| at period multiples; slope must reproduce +sigma for 3 randomly
    # chosen hyperbolic modes
    orb = conf6_orbit
    T = orb.period
    rng = np.random.default_rng(3)
    count = spheres.index_of_last_degree(orb.params.n, 3) + 1
    data = floquet.exponent_sequence(orb, count)
    distinct = {round(d.sigma, 9): d for d in data}
    picks = rng.choice(list(distinct), size=min(3, len(distinct)),
                       replace=False)
    for key in picks:
        d = distinct[key]
        op = floquet.ModeOperator(orb, d.lam)
        sol = solve_ivp(lambda s, y: [y[1], op.potential(s) * y[0]],
                        (0.0, 5 * T), [1.0, 0.3], method="DOP853",
                        rtol=1e-12, atol=1e-12, dense_output=True)
        ks = np.arange(1, 6)
        vals = np.log(np.abs(sol.sol(ks * T)[0]))
        slope = np.polyfit(ks * T, vals, 1)[0]
        assert abs(slope - d.sigma) < 1e-4, (d.lam, slope, d.sigma)


def test_lower_bound_report(conf6_orbit):
    n = 6
    const = fowler.constant_orbit(fowler.FowlerParams.conformal(n, 1.0))
    data_c = floquet.exponent_sequence(const, n + 1)
    rep_c = floquet.lower_bound_check(data_c, const)
    assert rep_c.ok
    # mode n+1 on the constant orbit: rho^2 = 2n - n + 2 = 8 for n = 6
    assert_allclose(data_c[n].sigma ** 2, 8.0, rtol=1e-12)
    assert data_c[n].sigma > 2.0

    data = floquet.exponent_sequence(conf6_orbit, n + 1)
    rep = floquet.lower_bound_check(data, conf6_orbit)
    assert rep.ok
    assert all(m > 0 for m in rep.margins)


def test_lower_bound_margin_cross_checked_by_growth_fit(conf6_orbit):
    # the mode-(n+1) exponent used in the bound is reproduced by forward
    # integration growth fitting (independent of the monodromy eigenvalues)
    orb = conf6_orbit
    d = floquet.exponent_sequence(orb, 7)[-1]
    op = floquet.ModeOperator(orb, d.lam)
    T = orb.period
    sol = solve_ivp(lambda s, y: [y[1], op.potential(s) * y[0]],
                    (0.0, 5 * T), [0.9, 0.1], method="DOP853", rtol=1e-12,
                    atol=1e-12, dense_output=True)
    ks = np.arange(1, 6)
    slope = np.polyfit(ks * T, np.log(np.abs(sol.sol(ks * T)[0])), 1)[0]
    assert abs(slope - d.sigma) < 1e-4
    assert d.sigma ** 2 > d.lam - (3 * 6 - 2) / 2.0


def test_ckn_exponent_ordering_and_positivity(ckn_orbit):
    orb = ckn_orbit
    n = orb.params.n
    count = spheres.index_of_last_degree(n, 2) + 1
    data = floquet.exponent_sequence(orb, count, with_factors=True)
    sig = [d.sigma for d in data]
    assert max(abs(s - sig[0]) for s in sig[:n]) < 1e-6
    assert sig[n] > sig[0] + 1e-6
    for d in data[n:]:
        assert np.min(d.q_plus(orb.t)) > 0.0
        assert d.periodicity_defect < 1e-6


def test_datum_json_roundtrip(conf5_orbit):
    d = floquet.mode_datum(conf5_orbit, 1, 4.0, 1, with_factors=True)
    payload = d.to_dict()
    assert payload["type"] == "III"
    assert len(payload["q_plus"]) == 256
    assert abs(payload["sigma"] - 1.0) < 1e-6
    assert payload["det_defect"] == d.det_defect < 1e-9
    assert payload["coupling"] is None
    # the mode-0 datum carries its measured t-term coupling
    d0 = floquet.mode_datum(conf5_orbit, 0, 0.0, 0)
    payload0 = json.loads(json.dumps(d0.to_dict()))
    assert payload0["type"] == floquet.TYPE_II
    assert payload0["coupling"] == d0.coupling != 0.0
    assert payload0["det_defect"] == d0.det_defect


def test_exponent_sequence_rejects_elliptic_mode(conf5_orbit, monkeypatch):
    # an elliptic classification for i >= 1 contradicts the hyperbolic kernel
    # structure and must be a hard error
    real = floquet.mode_datum

    def fake(orbit, index, lam, degree, with_factors=False):
        d = real(orbit, index, lam, degree, with_factors=with_factors)
        if lam > 0:
            d = floquet.FloquetDatum(
                index=d.index, degree=d.degree, lam=d.lam, period=d.period,
                monodromy=d.monodromy, type=floquet.TYPE_IV, omega=1.0)
        return d

    monkeypatch.setattr(floquet, "mode_datum", fake)
    with pytest.raises(floquet.FloquetStructureError, match="Type IV"):
        floquet.exponent_sequence(conf5_orbit, 3)


@pytest.mark.parametrize("orbit_name", ["conf3_orbit", "conf5_orbit",
                                        "ckn_orbit"])
def test_batched_solves_match_single_eigenvalue_solves(orbit_name, request):
    # the distinct eigenvalues of degrees 1..3 in one solve against one solve
    # per eigenvalue (a batch of one, the per-mode integration)
    orb = request.getfixturevalue(orbit_name)
    lams = [float(spheres.eigenvalue(k, orb.params.n)) for k in (1, 2, 3)]
    ops = [floquet.ModeOperator(orb, lam) for lam in lams]
    ms, dets, _, _ = floquet.monodromy(ops)
    batch = [floquet.FloquetDatum(0, 0, lam, orb.period, m, floquet.TYPE_III,
                                  sigma=floquet.classify(m, orb.period,
                                                         det=det).sigma)
             for lam, m, det in zip(lams, ms, dets)]
    factors = floquet.kernel_basis(ops, batch)
    for op, d, det, (qp, qm, defect) in zip(ops, batch, dets, factors):
        (m1,), (det1,), _, _ = floquet.monodromy([op])
        cls = floquet.classify(m1, orb.period, det=det1)
        assert cls.type == floquet.TYPE_III
        assert np.max(np.abs(d.monodromy - m1)) < 1e-10 * np.max(np.abs(m1))
        assert abs(det - det1) < 1e-10
        assert abs(d.sigma - cls.sigma) < 1e-10 * cls.sigma
        single = floquet.FloquetDatum(0, 0, op.lam, orb.period, m1, cls.type,
                                      sigma=cls.sigma)
        [(qp1, qm1, defect1)] = floquet.kernel_basis([op], [single])
        for got, ref in ((qp, qp1), (qm, qm1)):
            ref_vals = ref(orb.t)
            assert (np.max(np.abs(got(orb.t) - ref_vals))
                    < 1e-10 * np.max(np.abs(ref_vals)))
        assert defect < 1e-8 and defect1 < 1e-8


def _array_variational_rhs(t, y, lams, params):
    """`floquet.variational_rhs` in numpy arithmetic: the reference for its
    Python-float form, which must give the same bits."""
    k = (len(y) - 2) // 2
    xi, xi_prime = y[-2], y[-1]
    c_pow = params.c * xi ** (params.e - 1.0)
    v = lams + params.q - params.e * c_pow
    return np.concatenate((y[k:2 * k], v * y[:k],
                           (xi_prime, (params.q - c_pow) * xi)))


@pytest.mark.parametrize("orbit_name", ["conf5_orbit", "ckn_orbit"])
def test_variational_rhs_solves_are_bitwise_the_array_form(orbit_name, request,
                                                          monkeypatch):
    orb = request.getfixturevalue(orbit_name)
    lams = [float(spheres.eigenvalue(k, orb.params.n)) for k in (1, 2)]
    ops = [floquet.ModeOperator(orb, lam) for lam in lams]
    data = list(floquet.spectrum(orb, lams).values())
    grid = cylinder.make_grid()

    def solves():
        factors = floquet.kernel_basis(ops, data)
        pair = cylinder.ModeSolveContext(orb, 0.0, grid)
        return ([(qp(orb.t), qm(orb.t), defect) for qp, qm, defect in factors],
                pair.u, pair.shift)

    got = solves()
    monkeypatch.setattr(floquet, "variational_rhs", _array_variational_rhs)
    ref = solves()
    for (qp, qm, defect), (qp_ref, qm_ref, defect_ref) in zip(got[0], ref[0]):
        assert np.array_equal(qp, qp_ref) and np.array_equal(qm, qm_ref)
        assert defect == defect_ref
    assert np.array_equal(got[1], ref[1]) and np.array_equal(got[2], ref[2])
    y = np.array([1.0, 0.5, -0.25, 0.3, orb.epsilon, 0.1])
    for lam in (lams[0], np.array(lams), np.array([lams[0]])):
        assert np.array_equal(floquet.variational_rhs(0.0, y, lam, orb.params),
                              _array_variational_rhs(0.0, y, lam, orb.params))


def test_kernel_factors_reuse_the_cached_monodromy(monkeypatch):
    # exponent data without factors, then factors for the same eigenvalue:
    # the first call runs the propagator only, the second the kernel branch
    # solve only, the third nothing
    n = 5
    params = fowler.FowlerParams.conformal(n, 1.0)
    orb = fowler.periodic_orbit(0.45 * fowler.constant_solution(params),
                                params)
    runs, solves = [], []
    real_monodromy, real_solve = floquet.monodromy, floquet.solve_ivp
    monkeypatch.setattr(floquet, "monodromy", lambda *a, **k: runs.append(1)
                        or real_monodromy(*a, **k))
    monkeypatch.setattr(floquet, "solve_ivp", lambda *a, **k: solves.append(1)
                        or real_solve(*a, **k))
    floquet.exponent_sequence(orb, n, with_factors=False)
    assert (len(runs), len(solves)) == (1, 0)
    d = floquet.mode_datum(orb, 1, float(n - 1), 1, with_factors=True)
    assert (len(runs), len(solves)) == (1, 1) and d.q_plus is not None
    floquet.exponent_sequence(orb, n, with_factors=True)
    assert (len(runs), len(solves)) == (1, 1)


def test_magnus_error_falls_at_sixth_order(conf5_orbit):
    # the two-level error ||M_2N - M_N|| falls by at least 40x from N = 128
    # to N = 256 (64x for a 6th-order method); at N = 512 it reaches the
    # rounding floor of the 512-step product
    ms = [floquet._magnus_product(conf5_orbit, [4.0], n)[0]
          for n in (128, 256, 512)]
    coarse, fine = (np.max(np.abs(b - a)) for a, b in zip(ms, ms[1:]))
    assert coarse / fine >= 40.0


def _carried_orbit_monodromy(orbit, lams):
    """The DOP853 monodromy the Magnus propagator replaced: the orbit carried
    in the state, the period cut into subintervals by the largest eigenvalue,
    and the partial propagators multiplied."""
    T, k = orbit.period, len(lams)
    rate = math.sqrt(max(1.0, max(lams) + orbit.params.q))
    pieces = max(1, min(64, math.ceil(rate * T / 3.0)))
    breaks = np.linspace(0.0, T, pieces + 1)
    z0 = [1.0, 0.0] * k + [0.0, 1.0] * k
    ms = np.tile(np.eye(2), (k, 1, 1))
    xi_state = [orbit.epsilon, 0.0]
    for a, b in zip(breaks[:-1], breaks[1:]):
        sol = solve_ivp(floquet.variational_rhs, (a, b), [*z0, *xi_state],
                        args=(np.repeat(lams, 2), orbit.params),
                        method="DOP853", rtol=1e-12, atol=1e-14)
        yb = sol.y[:, -1]
        ms = yb[:4 * k].reshape(2, k, 2).transpose(1, 0, 2) @ ms
        xi_state = yb[4 * k:]
    return ms


@pytest.mark.parametrize("orbit_name", ["conf5_orbit", "ckn_orbit"])
def test_magnus_matches_carried_orbit_integration(orbit_name, request):
    orb = request.getfixturevalue(orbit_name)
    lams, _ = spheres.eigenvalue_sequence(orb.params.n, 13)
    lams = sorted({float(lam) for lam in lams[1:]})  # modes 1..12
    ref = _carried_orbit_monodromy(orb, lams)
    ms, dets, steps, errors = floquet.monodromy(
        [floquet.ModeOperator(orb, lam) for lam in lams])
    for m, r, det, n, err in zip(ms, ref, dets, steps, errors):
        assert np.max(np.abs(m - r)) <= 1e-10 * np.max(np.abs(r))
        sigma, sigma_ref = (floquet.classify(x, orb.period).sigma
                            for x in (m, r))
        assert abs(sigma - sigma_ref) <= 1e-10 * sigma_ref
        assert abs(det - 1.0) < 1e-12 and err <= floquet.MAGNUS_TOL
        assert floquet.MAGNUS_START < n <= 4096


def test_unresolved_monodromy_names_the_parameters(conf5_orbit, monkeypatch):
    # lambda = 1e6 grows by about e^4000 over the period, past the float
    # range, at every step count
    with pytest.raises(fowler.IntegrationError,
                       match=r"overflows at N = 256 .*lambda = 1000000\.0, "
                             r"estimate = nan"):
        floquet.monodromy([floquet.ModeOperator(conf5_orbit, 1e6)])
    # lambda = 4 needs 512 steps here; a cap of 256 leaves it unresolved
    monkeypatch.setattr(floquet, "MAGNUS_CAP", 256)
    with pytest.raises(fowler.IntegrationError,
                       match=r"unresolved at N = 256 .*\(n = 5, eps = .*, "
                             r"lambda = 4\.0, estimate = "):
        floquet.monodromy([floquet.ModeOperator(conf5_orbit, 4.0)])


def test_floor_level_with_a_grown_estimate_gives_way_to_the_one_before():
    # n = 3 at 1e-3 xi*, lambda = 2: the two-level differences fall to
    # 1.59e-10 at N = 16384 and grow to 6.42e-10 at N = 32768, where the
    # floor test trips; the earlier level is kept, matrix and determinant too
    params = fowler.FowlerParams.conformal(3, 1.0)
    orb = fowler.periodic_orbit(1e-3 * fowler.constant_solution(params),
                                params)
    (m,), (det,), (steps,), (error,) = floquet.monodromy(
        [floquet.ModeOperator(orb, 2.0)])
    assert steps == 16384 and error == pytest.approx(1.59e-10, rel=1e-2)
    ref, ref_det = floquet._magnus_product(orb, [2.0], 16384)
    assert np.array_equal(m, ref[0]) and det == ref_det[0]
    sigma = floquet.classify(m, orb.period, det=det).sigma
    assert sigma - 1.0 == pytest.approx(-3.08e-8, rel=1e-2)


@pytest.mark.parametrize("params, frac", [
    (fowler.FowlerParams.conformal(3), 1e-3),
    (fowler.FowlerParams.conformal(5), 1e-3),
    (fowler.FowlerParams.conformal(5), 0.5),
    (fowler.FowlerParams.conformal(5), 0.8),
    (fowler.FowlerParams.ckn(5, 0.5, 0.7), 0.4)])
def test_mode0_is_type_two_by_structure(params, frac):
    # on slow orbits the mode-0 trace drifts past TRACE_TOL (2.9e-6 at n = 5,
    # 1e-3 xi*), but xi' is a periodic kernel element whatever the trace says
    orb = fowler.periodic_orbit(frac * fowler.constant_solution(params), params)
    d0 = floquet.mode_datum(orb, 0, 0.0, 0)
    assert d0.type == floquet.TYPE_II and d0.sigma is None
    assert d0.trace_defect == abs(np.trace(d0.monodromy) - 2.0)
    assert d0.trace_defect < (1e-5 if frac < 0.1 else 1e-9)
    assert d0.to_dict()["trace_defect"] == d0.trace_defect


@pytest.mark.parametrize("frac", [1e-3, 0.5])
def test_exponents_do_not_depend_on_the_batch(frac):
    # sigma_1 on n = 3 used to follow the subinterval count that the largest
    # eigenvalue of the batch set (1.0028 alone against 1.00048 in a batch
    # of degrees 1..3 at 1e-6 xi*)
    params = fowler.FowlerParams.conformal(3, 1.0)
    orbits = [fowler.periodic_orbit(frac * fowler.constant_solution(params),
                                    params) for _ in range(2)]
    alone = floquet.mode_datum(orbits[0], 1, 2.0, 1)
    batch = floquet.exponent_sequence(orbits[1], 15)[0]
    assert batch.lam == 2.0 and sorted(orbits[1]._floquet) == [2.0, 6.0, 12.0]
    assert abs(alone.sigma - batch.sigma) <= 1e-14 * batch.sigma
    assert (np.max(np.abs(alone.monodromy - batch.monodromy))
            <= 1e-14 * np.max(np.abs(batch.monodromy)))
    assert alone.magnus_steps == batch.magnus_steps


def test_batched_overflow_names_lowest_offending_eigenvalue():
    # n = 3 at eps = 1e-6 xi*: modes 1..50 reach degree 7 (lambda = 56);
    # the batch fails at the first eigenvalue whose growth overflows
    params = fowler.FowlerParams.conformal(3, 1.0)
    orb = fowler.periodic_orbit(1e-6 * fowler.constant_solution(params),
                                params)
    with pytest.raises(fowler.IntegrationError,
                       match=r"n = 3.*lambda = 42\.0\)"):
        floquet.exponent_sequence(orb, 50, with_factors=True)


def test_floor_accepted_monodromies_carry_a_warning():
    # n = 3 at 1e-6 xi*: the propagator stops at the stored orbit's accuracy
    # floor, sigma_1 = 0.957 against the exact 1 and estimates far above
    # MAGNUS_TOL; the data say so
    params = fowler.FowlerParams.conformal(3, 1.0)
    orb = fowler.periodic_orbit(1e-6 * fowler.constant_solution(params),
                                params)
    data = floquet.spectrum(orb, [0.0, 2.0])
    assert abs(data[2.0].sigma - 1.0) > 1e-2
    for lam, d in data.items():
        assert d.magnus_error > floquet.MAGNUS_TOL
        assert d.warning == (
            f"monodromy kept at the orbit's accuracy floor (n = 3, eps = "
            f"{orb.epsilon!r}, lambda = {lam!r}, N = {d.magnus_steps}, "
            f"estimate = {d.magnus_error:.3g})")
        assert d.to_dict()["warning"] == d.warning
    # appended to a classification warning: a negative trace
    m = -data[2.0].monodromy
    d = floquet._classified(orb, 2.0, m, 1.0, 512, 1e-9)
    assert d.warning == ("negative trace: factors are antiperiodic; monodromy "
                         "kept at the orbit's accuracy floor (n = 3, eps = "
                         f"{orb.epsilon!r}, lambda = 2.0, N = 512, "
                         "estimate = 1e-09)")


@pytest.mark.parametrize("params, eps, frac", [
    (fowler.FowlerParams.conformal(5, 1.0), 0.4, None),
    (fowler.FowlerParams.ckn(5, 0.5, 0.7), 0.3, None),
    (fowler.FowlerParams.conformal(5, 1.0), None, 0.8),
    (fowler.FowlerParams.conformal(5, 1.0), None, 0.5),
    (fowler.FowlerParams.ckn(5, 0.5, 0.7), None, 0.4),
    (fowler.FowlerParams.conformal(5, 1.0), None, None),
    (fowler.FowlerParams.conformal(6, 1.0), None, None)])
def test_readme_orbits_carry_no_warning(params, eps, frac):
    # the README's orbits (eps given, or a fraction of xi*, or the constant
    # solution) converge well below MAGNUS_TOL in modes 0..12
    if frac is not None:
        eps = frac * fowler.constant_solution(params)
    orb = (fowler.constant_orbit(params) if eps is None
           else fowler.periodic_orbit(eps, params))
    lams, _ = spheres.eigenvalue_sequence(params.n, 13)
    data = floquet.spectrum(orb, lams, with_factors=True)
    assert all(d.warning is None for d in data.values())
    assert all(d.magnus_error <= floquet.MAGNUS_TOL for d in data.values())
