import dataclasses
import json
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from fowlerlab import cli, cylinder, floquet, fowler, spheres


def test_constant_orbit_monodromy_closed_form(const5_orbit):
    lam = 10.0
    m = floquet.monodromy(const5_orbit, [lam])[0][0]
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
    m = floquet.monodromy(conf5_orbit, [4.0])[0][0]
    T = conf5_orbit.period
    assert abs(np.trace(m) - (math.exp(T) + math.exp(-T))) < 1e-6 * math.exp(T)


def test_determinant_is_one(conf3_orbit, ckn_orbit):
    rng = np.random.default_rng(11)
    pairs = [(conf3_orbit, lam) for lam in rng.uniform(0.5, 12.0, 10)]
    pairs += [(ckn_orbit, lam) for lam in rng.uniform(0.5, 12.0, 10)]
    for orbit, lam in pairs:
        _, (det,), _, _, _ = floquet.monodromy(orbit, [float(lam)])
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
    # each matrix with its exact determinant; hyperbolic
    c = floquet.classify(np.diag([math.exp(2.0), math.exp(-2.0)]), 1.0, 1.0)
    assert c.type == floquet.TYPE_III and abs(c.sigma - 2.0) < 1e-12
    # elliptic
    th = 0.7
    rot = np.array([[math.cos(th), math.sin(th)],
                    [-math.sin(th), math.cos(th)]])
    c = floquet.classify(rot, 1.0, 1.0)
    assert c.type == floquet.TYPE_IV and abs(c.omega - th) < 1e-12
    # unit eigenvalue, diagonal vs Jordan block
    assert floquet.classify(np.eye(2), 1.0, 1.0).type == floquet.TYPE_I
    assert floquet.classify(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0,
                            1.0).type == floquet.TYPE_II
    with pytest.raises(ValueError, match="determinant"):
        floquet.classify(np.diag([2.0, 1.0]), 1.0, det=2.0)


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


def test_overflowing_trace_gives_a_finite_exponent():
    # n = 3 at eps = 1e-6 xi*: from degree 6 (lambda = 42) on, tr * tr
    # overflows; sqrt(tr^2 - 4) rounds to |tr| there, so sigma = ln|tr| / T
    params = fowler.FowlerParams.conformal(3, 1.0)
    orb = fowler.periodic_orbit(1e-6 * fowler.constant_solution(params),
                                params)
    data = floquet.spectrum(orb, [30.0, 42.0, 56.0])
    assert data[30.0].sigma == 5.488490579564954  # as before, bit for bit
    for lam, sigma in ((42.0, 6.490321630672212), (56.0, 7.491644223521441)):
        tr = float(np.trace(data[lam].monodromy))
        assert math.isinf(tr * tr)
        assert data[lam].sigma == sigma == math.log(abs(tr)) / orb.period


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
    sol = solve_ivp(floquet.variational_system([lam], orb.params), (T, 0.0),
                    [w_small[0], w_small[1], orb.epsilon, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    ref = np.exp(d.sigma * (orb.t - T)) * sol.sol(orb.t)[0]
    got = d.q_plus(orb.t)
    assert np.max(np.abs(got - ref)) < 1e-10 * np.max(np.abs(ref))


def test_determinant_failure_is_typed_error(conf5_orbit, monkeypatch):
    nodes = np.tile(np.eye(2), (floquet.KERNEL_PIECES, 1, 1))
    monkeypatch.setattr(floquet, "monodromy", lambda orbit, lams: (
        [np.eye(2)], [2.0], [256], [0.0], [nodes]))
    with pytest.raises(fowler.IntegrationError,
                       match=r"determinant.*n = 5.*lambda = 7\.25") as info:
        floquet.mode_datum(conf5_orbit, 0, 7.25, 1)
    assert isinstance(info.value.__cause__, ValueError)
    assert 7.25 not in conf5_orbit._floquet


def test_kernel_branch_failure_names_the_parameters(conf5_orbit, monkeypatch):
    d = floquet.spectrum(conf5_orbit, [4.0, 10.0])
    monkeypatch.setattr(floquet, "solve_ivp",
                        lambda *a, **k: SimpleNamespace(success=False))
    with pytest.raises(fowler.IntegrationError) as err:
        floquet.kernel_basis(conf5_orbit, list(d.values()))
    assert str(err.value) == (
        f"kernel branch integration failed "
        f"({conf5_orbit.named(('lambda', [4.0, 10.0]))})")


def test_exponent_sequence_refusals_name_the_orbit(conf5_orbit, monkeypatch):
    # a Type IV mode i >= 1 and a decreasing exponent used to name nothing
    real = floquet.spectrum
    for at, change, message in [
            (4.0, {"type": floquet.TYPE_IV}, "mode 1 classified Type IV; "
             "modes i >= 1 must be hyperbolic -- integration failure "
             f"suspected ({conf5_orbit.named(('lambda', 4.0))})"),
            (10.0, {"sigma": 0.1}, "exponent sequence not nondecreasing "
             f"({conf5_orbit.named()})")]:
        monkeypatch.setattr(floquet, "spectrum", lambda orbit, lams, wf: {
            lam: dataclasses.replace(d, **change) if lam == at else d
            for lam, d in real(orbit, lams, wf).items()})
        with pytest.raises(floquet.FloquetStructureError) as err:
            floquet.exponent_sequence(conf5_orbit, 6)
        assert str(err.value) == message


def test_spectrum_returns_the_kept_data_by_eigenvalue(monkeypatch):
    params = fowler.FowlerParams.conformal(5, 1.0)
    orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params), params)
    batches = []
    real = floquet.monodromy
    monkeypatch.setattr(floquet, "monodromy", lambda orbit, lams: batches.append(
        list(lams)) or real(orbit, lams))
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
        floquet.kernel_basis(conf5_orbit, [d0])


def test_kernel_basis_refuses_data_without_nodes(conf5_orbit):
    # a hand-built datum without its Magnus tree nodes has no shooting seeds
    d = floquet.mode_datum(conf5_orbit, 1, 4.0, 1)
    with pytest.raises(ValueError, match=r"without nodes \(lambda = 4\.0\)"):
        floquet.kernel_basis(conf5_orbit, [dataclasses.replace(d, nodes=None)])


def test_batches_refuse_to_be_empty(conf5_orbit):
    with pytest.raises(ValueError, match="no eigenvalues"):
        floquet.monodromy(conf5_orbit, [])
    with pytest.raises(ValueError, match="no Floquet data"):
        floquet.kernel_basis(conf5_orbit, [])


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
    payload = cli.mode_payload(d)
    assert payload["type"] == "III"
    assert len(payload["q_plus"]) == 256
    assert abs(payload["sigma"] - 1.0) < 1e-6
    assert payload["det_defect"] == d.det_defect < 1e-9
    assert payload["coupling"] is None
    # the mode-0 datum carries its measured t-term coupling
    d0 = floquet.mode_datum(conf5_orbit, 0, 0.0, 0)
    payload0 = json.loads(json.dumps(cli.mode_payload(d0)))
    assert payload0["type"] == floquet.TYPE_II
    assert payload0["coupling"] == d0.coupling != 0.0
    assert payload0["det_defect"] == d0.det_defect


def _datum_dict_by_keys(d):
    # cli.mode_payload as a hand-kept key list, before the file was read
    # off the datum's compared fields
    out = {
        "index": d.index,
        "degree": d.degree,
        "lambda": d.lam,
        "period": d.period,
        "monodromy": [list(map(float, row)) for row in d.monodromy],
        "type": d.type,
        "sigma": d.sigma,
        "omega": d.omega,
        "periodicity_defect": d.periodicity_defect,
        "det_defect": d.det_defect,
        "magnus_steps": d.magnus_steps,
        "magnus_error": d.magnus_error,
        "trace_defect": d.trace_defect,
        "coupling": d.coupling,
        "warning": d.warning,
    }
    if d.q_plus is not None:
        ts = np.linspace(0.0, d.period, 257)[:-1]
        out["q_plus"] = d.q_plus(ts).tolist()
        out["q_minus"] = d.q_minus(ts).tolist()
    return out


@pytest.mark.parametrize("params, frac", [
    (fowler.FowlerParams.conformal(5, 1.0), None),
    (fowler.FowlerParams.conformal(5, 1.0), 0.5),
    (fowler.FowlerParams.ckn(5, 0.5, 0.7), 0.4)],
    ids=["floquet-constant", "floquet", "construct-ckn"])
def test_datum_file_holds_exactly_the_compared_fields(params, frac, tmp_path):
    # README orbits, modes 0..3, first without kernel factors, then with
    orb = (fowler.constant_orbit(params) if frac is None else
           fowler.periodic_orbit(frac * fowler.constant_solution(params),
                                 params))
    fields = dataclasses.fields(floquet.FloquetDatum)
    assert {f.name for f in fields if not f.compare} == {
        "q_plus", "q_minus", "kernel_rhs_evals", "kernel_steps", "nodes"}
    compared = {f.name for f in fields if f.compare} - {"lam"} | {"lambda"}
    lams, _ = spheres.eigenvalue_sequence(params.n, 4)
    for with_factors in (False, True):
        for d in floquet.spectrum(orb, lams, with_factors).values():
            payload = cli.mode_payload(d)
            factors = with_factors and d.type == floquet.TYPE_III
            assert (d.q_plus is not None) == factors
            samples = {"q_plus", "q_minus"} if factors else set()
            assert set(payload) == compared | samples
            assert all(len(payload[k]) == 256 for k in samples)
            cli.write_json(payload, tmp_path / "fields.json")
            cli.write_json(_datum_dict_by_keys(d), tmp_path / "keys.json")
            assert ((tmp_path / "fields.json").read_bytes()
                    == (tmp_path / "keys.json").read_bytes())


def test_exponent_sequence_rejects_elliptic_mode(conf5_orbit, monkeypatch):
    # an elliptic classification for i >= 1 contradicts the hyperbolic kernel
    # structure and must be a hard error
    real = floquet.spectrum

    def fake(orbit, lams, with_factors=False):
        return {lam: floquet.FloquetDatum(
                    index=d.index, degree=d.degree, lam=d.lam, period=d.period,
                    monodromy=d.monodromy, type=floquet.TYPE_IV, omega=1.0)
                for lam, d in real(orbit, lams, with_factors).items()}

    monkeypatch.setattr(floquet, "spectrum", fake)
    with pytest.raises(floquet.FloquetStructureError, match="Type IV"):
        floquet.exponent_sequence(conf5_orbit, 3)


@pytest.mark.parametrize("with_factors", [False, True])
def test_exponent_sequence_reads_one_spectrum_batch(with_factors, monkeypatch):
    # every mode is copied from the one batch, not read again per mode
    params = fowler.FowlerParams.conformal(5, 1.0)
    orb = fowler.periodic_orbit(0.5 * fowler.constant_solution(params), params)
    real, batches = floquet.spectrum, []

    def recorded(orbit, lams, with_factors=False):
        batches.append((list(lams), with_factors))
        return real(orbit, lams, with_factors)

    monkeypatch.setattr(floquet, "spectrum", recorded)
    data = floquet.exponent_sequence(orb, 8, with_factors=with_factors)
    assert batches == [([4] * 5 + [10] * 3, with_factors)]
    assert [(d.index, d.degree) for d in data] == [
        (i, 1 if i <= 5 else 2) for i in range(1, 9)]
    for d in data:
        kept = orb._floquet[d.lam]
        assert d.monodromy is kept.monodromy and d.q_plus is kept.q_plus
        assert (d.q_plus is not None) == with_factors


@pytest.mark.parametrize("orbit_name", ["conf3_orbit", "conf5_orbit",
                                        "ckn_orbit"])
def test_batched_solves_match_single_eigenvalue_solves(orbit_name, request):
    # the distinct eigenvalues of degrees 1..3 in one solve against one solve
    # per eigenvalue (a batch of one, the per-mode integration)
    orb = request.getfixturevalue(orbit_name)
    lams = [float(spheres.eigenvalue(k, orb.params.n)) for k in (1, 2, 3)]
    ms, dets, _, _, nodes = floquet.monodromy(orb, lams)
    batch = [floquet.FloquetDatum(0, 0, lam, orb.period, m, floquet.TYPE_III,
                                  sigma=floquet.classify(m, orb.period,
                                                         det=det).sigma,
                                  nodes=nd)
             for lam, m, det, nd in zip(lams, ms, dets, nodes)]
    factors = floquet.kernel_basis(orb, batch)
    assert len({f[3:] for f in factors}) == 1  # one shared solve
    for lam, d, det, (qp, qm, defect, *_) in zip(lams, batch, dets, factors):
        (m1,), (det1,), _, _, (nodes1,) = floquet.monodromy(orb, [lam])
        cls = floquet.classify(m1, orb.period, det=det1)
        assert cls.type == floquet.TYPE_III
        assert np.max(np.abs(d.monodromy - m1)) < 1e-10 * np.max(np.abs(m1))
        assert abs(det - det1) < 1e-10
        assert abs(d.sigma - cls.sigma) < 1e-10 * cls.sigma
        single = floquet.FloquetDatum(0, 0, lam, orb.period, m1, cls.type,
                                      sigma=cls.sigma, nodes=nodes1)
        [(qp1, qm1, defect1, *_)] = floquet.kernel_basis(orb, [single])
        for got, ref in ((qp, qp1), (qm, qm1)):
            ref_vals = ref(orb.t)
            assert (np.max(np.abs(got(orb.t) - ref_vals))
                    < 1e-10 * np.max(np.abs(ref_vals)))
        assert defect < 1e-8 and defect1 < 1e-8


def _parent_variational_rhs(t, y, lams, params):
    """The right-hand side before it became a factory: one eigenvalue per
    column, or one for all of them, constants read on every call."""
    y = y.tolist()
    k = (len(y) - 2) // 2
    xi, xi_prime = y[-2:]
    c_pow = params.c * xi ** (params.e - 1.0)
    e_c_pow = params.e * c_pow
    lams = (lams.tolist() if isinstance(lams, np.ndarray) and lams.ndim
            else [float(lams)])
    v = [lam + params.q - e_c_pow for lam in lams]
    if len(v) == 1:
        v *= k
    return (y[k:2 * k] + [vj * z for vj, z in zip(v, y[:k])]
            + [xi_prime, (params.q - c_pow) * xi])


def _array_variational_system(lams, params, pieces=1):
    """`floquet.variational_system` in numpy arithmetic, powers on numpy
    scalars: the reference it must match bit for bit."""
    lams = np.asarray(lams, dtype=float)

    def rhs(t, y):
        cols = pieces * lams.size
        xi, xi_prime = y[2 * cols:2 * cols + pieces], y[2 * cols + pieces:]
        c_pow = params.c * np.array([x ** (params.e - 1.0) for x in xi])
        v = lams + params.q - params.e * c_pow[:, None]
        return np.concatenate((y[cols:2 * cols],
                               (v * y[:cols].reshape(pieces, -1)).ravel(),
                               xi_prime, (params.q - c_pow) * xi))
    return rhs


@pytest.mark.parametrize("orbit_name", ["conf5_orbit", "ckn_orbit"])
def test_variational_system_is_bitwise_the_parent_rhs(orbit_name, request):
    # k = 1, 2 and 3 columns, and the fundamental pair's [lam, lam], whose
    # parent form took the scalar eigenvalue, at one piece
    orb = request.getfixturevalue(orbit_name)
    lams = [float(spheres.eigenvalue(k, orb.params.n)) for k in (1, 2, 3)]
    rng = np.random.default_rng(11)
    for cols, parent_lams in ((lams[:1], np.array(lams[:1])),
                              (lams[:2], np.array(lams[:2])),
                              (lams, np.array(lams)),
                              ([lams[0], lams[0]], lams[0]),
                              ([0.0, 0.0], 0.0)):
        rhs = floquet.variational_system(cols, orb.params)
        for t in (0.0, 1.7):
            y = np.concatenate((rng.normal(size=2 * len(cols)),
                                [orb.value(t), orb.derivative(t)]))
            assert np.array_equal(
                rhs(t, y), _parent_variational_rhs(t, y, parent_lams,
                                                   orb.params))


@pytest.mark.parametrize("orbit_name", ["conf5_orbit", "ckn_orbit"])
def test_variational_rhs_solves_are_bitwise_the_array_form(orbit_name, request,
                                                          monkeypatch):
    orb = request.getfixturevalue(orbit_name)
    lams = [float(spheres.eigenvalue(k, orb.params.n)) for k in (1, 2)]
    data = list(floquet.spectrum(orb, lams).values())
    grid = cylinder.make_grid()

    def solves():
        factors = floquet.kernel_basis(orb, data)
        pair = cylinder.ModeSolveContext(orb, 0.0, grid)
        return ([(qp(orb.t), qm(orb.t), defect)
                 for qp, qm, defect, *_ in factors],
                pair.u, pair.shift)

    got = solves()
    monkeypatch.setattr(floquet, "variational_system",
                        _array_variational_system)
    ref = solves()
    for (qp, qm, defect), (qp_ref, qm_ref, defect_ref) in zip(got[0], ref[0]):
        assert np.array_equal(qp, qp_ref) and np.array_equal(qm, qm_ref)
        assert defect == defect_ref
    assert np.array_equal(got[1], ref[1]) and np.array_equal(got[2], ref[2])
    y = np.array([1.0, 0.5, -0.25, 0.3, orb.epsilon, 0.1])
    for cols in (lams, [lams[0], lams[0]]):
        assert np.array_equal(
            floquet.variational_system(cols, orb.params)(0.0, y),
            _array_variational_system(cols, orb.params)(0.0, y))
    pieces = floquet.KERNEL_PIECES
    breaks = orb.period * np.arange(pieces) / pieces
    y = np.concatenate((np.random.default_rng(5).normal(size=4 * pieces),
                        orb.value(breaks), orb.derivative(breaks)))
    assert np.array_equal(
        floquet.variational_system(lams, orb.params, pieces)(0.0, y),
        _array_variational_system(lams, orb.params, pieces)(0.0, y))


def _conformal(n, frac):
    params = fowler.FowlerParams.conformal(n, 1.0)
    return params, frac * fowler.constant_solution(params)


_CKN = fowler.FowlerParams.ckn(5, 0.5, 0.7)
_SHOOTING_ORBITS = {  # (params, eps): the README orbits, criterion 2's, a slow one
    "readme fowler": (fowler.FowlerParams.conformal(5, 1.0), 0.4),
    "readme fowler ckn": (_CKN, 0.3),
    "readme expand": _conformal(5, 0.8),
    "readme construct": _conformal(5, 0.5),
    "readme construct ckn": (_CKN, 0.4 * fowler.constant_solution(_CKN)),
    **{f"criterion 2, n = {n}, {frac} xi*": _conformal(n, frac)
       for n in (4, 5, 6) for frac in (0.3, 0.55, 0.8)},
    "n = 3, 1e-3 xi*": _conformal(3, 1e-3),
}


@pytest.mark.parametrize("name", list(_SHOOTING_ORBITS))
def test_kernel_pieces_match_one_forward_solve(name, monkeypatch):
    # degrees 1..3 by KERNEL_PIECES shooting pieces against one solve over
    # the whole period: 1e-10 relative, or, where the one solve is worse than
    # that (degree 1 on n = 3 at 1e-3 xi*, 5.6e-10), within the two solves'
    # own periodicity defects
    params, eps = _SHOOTING_ORBITS[name]
    orb = fowler.periodic_orbit(eps, params)
    lams = [float(spheres.eigenvalue(k, params.n)) for k in (1, 2, 3)]
    data = list(floquet.spectrum(orb, lams).values())
    got = floquet.kernel_basis(orb, data)
    monkeypatch.setattr(floquet, "KERNEL_PIECES", 1)
    ref = floquet.kernel_basis(orb, data)
    assert got[0][4] < ref[0][4]  # fewer accepted steps
    for (qp, qm, defect, *_), (qp1, qm1, defect1, *_) in zip(got, ref):
        for q, q1 in ((qp, qp1), (qm, qm1)):
            ref_vals = q1(orb.t)
            err = np.max(np.abs(q(orb.t) - ref_vals)) / np.max(np.abs(ref_vals))
            assert err <= max(1e-10, defect1 + defect)


def test_planted_seed_error_shows_in_the_periodicity_defect(conf5_orbit):
    # one node of each datum's Magnus tree level scaled by 1 + 1e-6: the
    # piece it seeds starts off the branch, and its junction says so
    lams = [float(spheres.eigenvalue(k, 5)) for k in (1, 2, 3)]
    data = list(floquet.spectrum(conf5_orbit, lams).values())
    clean = floquet.kernel_basis(conf5_orbit, data)
    planted = []
    for d in data:
        nodes = d.nodes.copy()
        nodes[5] *= 1.0 + 1e-6
        planted.append(dataclasses.replace(d, nodes=nodes))
    bad = floquet.kernel_basis(conf5_orbit, planted)
    assert all(defect < 1e-10 for _, _, defect, *_ in clean)
    assert all(defect > 1e-7 for _, _, defect, *_ in bad)


def test_kernel_factors_reuse_the_cached_monodromy(monkeypatch):
    # exponent data without factors, then factors for the same eigenvalue:
    # the first call runs the propagator only, the second the kernel branch
    # solve only, the third nothing; neither shooting solve, the kernel
    # branches' nor the mode-0 pair's, builds a Magnus tree of its own
    n = 5
    params = fowler.FowlerParams.conformal(n, 1.0)
    orb = fowler.periodic_orbit(0.45 * fowler.constant_solution(params),
                                params)
    runs, solves, trees = [], [], []
    real_monodromy, real_solve = floquet.monodromy, floquet.solve_ivp
    real_tree = floquet._magnus_product
    monkeypatch.setattr(floquet, "monodromy", lambda *a, **k: runs.append(1)
                        or real_monodromy(*a, **k))
    monkeypatch.setattr(floquet, "solve_ivp", lambda *a, **k: solves.append(1)
                        or real_solve(*a, **k))
    monkeypatch.setattr(floquet, "_magnus_product",
                        lambda *a, **k: trees.append(1) or real_tree(*a, **k))
    floquet.exponent_sequence(orb, n, with_factors=False)
    levels = len(trees)  # one tree per level of the one monodromy run
    assert (len(runs), len(solves)) == (1, 0) and levels > 0
    d = floquet.mode_datum(orb, 1, float(n - 1), 1, with_factors=True)
    assert (len(runs), len(solves), len(trees)) == (1, 1, levels)
    assert d.q_plus is not None
    floquet.exponent_sequence(orb, n, with_factors=True)
    assert (len(runs), len(solves), len(trees)) == (1, 1, levels)
    floquet.spectrum(orb, [0.0])
    levels = len(trees)
    assert len(runs) == 2
    ctx = cylinder.ModeSolveContext(orb, 0.0, cylinder.make_grid())
    assert (len(runs), len(trees)) == (2, levels) and ctx.pair_steps > 0


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
    and the partial propagators multiplied.  Returns the matrices and the
    products of the subinterval determinants, which stay well conditioned
    where the determinant of a large-entry product would not."""
    T, k = orbit.period, len(lams)
    rate = math.sqrt(max(1.0, max(lams) + orbit.params.q))
    pieces = max(1, min(64, math.ceil(rate * T / 3.0)))
    breaks = np.linspace(0.0, T, pieces + 1)
    z0 = [1.0, 0.0] * k + [0.0, 1.0] * k
    ms, dets = np.tile(np.eye(2), (k, 1, 1)), np.ones(k)
    xi_state = [orbit.epsilon, 0.0]
    for a, b in zip(breaks[:-1], breaks[1:]):
        sol = solve_ivp(floquet.variational_system(np.repeat(lams, 2),
                                                   orbit.params),
                        (a, b), [*z0, *xi_state], method="DOP853", rtol=1e-12,
                        atol=1e-14)
        yb = sol.y[:, -1]
        step = yb[:4 * k].reshape(2, k, 2).transpose(1, 0, 2)
        ms, dets = step @ ms, dets * np.linalg.det(step)
        xi_state = yb[4 * k:]
    return ms, dets


@pytest.mark.parametrize("orbit_name", ["conf5_orbit", "ckn_orbit"])
def test_magnus_matches_carried_orbit_integration(orbit_name, request):
    orb = request.getfixturevalue(orbit_name)
    lams, _ = spheres.eigenvalue_sequence(orb.params.n, 13)
    lams = sorted({float(lam) for lam in lams[1:]})  # modes 1..12
    ref, ref_dets = _carried_orbit_monodromy(orb, lams)
    ms, dets, steps, errors, _ = floquet.monodromy(orb, lams)
    for m, r, det, r_det, n, err in zip(ms, ref, dets, ref_dets, steps, errors):
        assert np.max(np.abs(m - r)) <= 1e-10 * np.max(np.abs(r))
        sigma, sigma_ref = (floquet.classify(x, orb.period, x_det).sigma
                            for x, x_det in ((m, det), (r, r_det)))
        assert abs(sigma - sigma_ref) <= 1e-10 * sigma_ref
        assert abs(det - 1.0) < 1e-12 and err <= floquet.MAGNUS_TOL
        assert floquet.MAGNUS_START < n <= 4096


def test_unresolved_monodromy_names_the_parameters(conf5_orbit, monkeypatch):
    # lambda = 1e6 grows by about e^4000 over the period, past the float
    # range, at every step count
    with pytest.raises(fowler.IntegrationError,
                       match=r"overflows at N = 256 .*lambda = 1000000\.0, "
                             r"estimate = nan"):
        floquet.monodromy(conf5_orbit, [1e6])
    # lambda = 4 needs 512 steps here; a cap of 256 leaves it unresolved
    monkeypatch.setattr(floquet, "MAGNUS_CAP", 256)
    with pytest.raises(fowler.IntegrationError,
                       match=r"unresolved at N = 256 steps \("
                             + re.escape(conf5_orbit.named(("lambda", 4.0)))
                             + r", estimate = "):
        floquet.monodromy(conf5_orbit, [4.0])


def test_floor_level_with_a_grown_estimate_gives_way_to_the_one_before():
    # n = 3 at 1e-3 xi*, lambda = 2: the two-level differences fall to
    # 1.59e-10 at N = 16384 and grow to 6.42e-10 at N = 32768, where the
    # floor test trips; the earlier level is kept, matrix and determinant too
    params = fowler.FowlerParams.conformal(3, 1.0)
    orb = fowler.periodic_orbit(1e-3 * fowler.constant_solution(params),
                                params)
    (m,), (det,), (steps,), (error,), _ = floquet.monodromy(orb, [2.0])
    assert steps == 16384 and error == pytest.approx(1.59e-10, rel=1e-2)
    ref, ref_det, _ = floquet._magnus_product(orb, [2.0], 16384)
    assert np.array_equal(m, ref[0]) and det == ref_det[0]
    sigma = floquet.classify(m, orb.period, det=det).sigma
    assert sigma - 1.0 == pytest.approx(-3.08e-8, rel=1e-2)


def _tree_product(nodes):
    """A tree level's nodes multiplied pairwise up to the root, later nodes
    from the left, entry by entry as `floquet._magnus_product` does."""
    while len(nodes) > 1:
        a, b = nodes[1::2], nodes[::2]
        nodes = np.stack([[a[:, i, 0] * b[:, 0, j] + a[:, i, 1] * b[:, 1, j]
                           for j in (0, 1)] for i in (0, 1)]).transpose(2, 0, 1)
    return nodes[0]


@pytest.mark.parametrize("params, frac, lams, steps", [
    (fowler.FowlerParams.conformal(5), 0.5, [0.0, 4.0, 10.0, 18.0], None),
    (fowler.FowlerParams.ckn(5, 0.5, 0.7), 0.4, [0.0, 4.0, 10.0, 18.0], None),
    (fowler.FowlerParams.conformal(3), 1e-3, [2.0], 16384)])
def test_datum_nodes_multiply_to_its_monodromy(params, frac, lams, steps):
    # each datum keeps the level its monodromy came from, bit for bit; for
    # n = 3 at 1e-3 xi*, lambda = 2, that is the level before the floor
    orb = fowler.periodic_orbit(frac * fowler.constant_solution(params), params)
    for d in floquet.spectrum(orb, lams).values():
        assert d.nodes.shape == (floquet.KERNEL_PIECES, 2, 2)
        assert not d.nodes.flags.writeable
        assert np.array_equal(_tree_product(d.nodes), d.monodromy)
        assert steps in (None, d.magnus_steps)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_constant_orbit_nodes_multiply_to_the_closed_form(n):
    # a constant orbit's nodes are the closed form over T / KERNEL_PIECES;
    # their product is the closed form over T up to rounding
    orb = fowler.constant_orbit(fowler.FowlerParams.conformal(n))
    lams, _ = spheres.eigenvalue_sequence(n, 8)
    for d in floquet.spectrum(orb, lams).values():
        m = d.monodromy
        err = np.max(np.abs(_tree_product(d.nodes) - m)) / np.max(np.abs(m))
        assert err <= 1e-13


@pytest.mark.parametrize("params", [fowler.FowlerParams.conformal(3),
                                    fowler.FowlerParams.conformal(8),
                                    fowler.FowlerParams.ckn(5, 0.5, 0.7)])
def test_constant_orbit_nodes_are_the_closed_form_over_one_piece(
        params, monkeypatch):
    # every node is exp(h [[0, 1], [v, 0]]), h = T / KERNEL_PIECES, for the
    # constant potential v, whatever its sign; no Magnus tree is built
    def no_tree(*args):
        raise AssertionError("a constant orbit built a Magnus tree")
    monkeypatch.setattr(floquet, "_magnus_product", no_tree)
    orb = fowler.constant_orbit(params)
    h = orb.period / floquet.KERNEL_PIECES
    lams, _ = spheres.eigenvalue_sequence(params.n, 8)
    data = floquet.spectrum(orb, lams).values()
    assert {d.type for d in data} == {floquet.TYPE_III, floquet.TYPE_IV}
    for d in data:
        v = float(floquet.ModeOperator(orb, d.lam).potential(0.0))
        ref = expm(h * np.array([[0.0, 1.0], [v, 0.0]]))
        assert d.nodes.shape == (floquet.KERNEL_PIECES, 2, 2)
        assert (d.nodes == d.nodes[0]).all()
        assert np.max(np.abs(d.nodes[0] - ref)) <= 1e-14 * np.max(np.abs(ref))


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
    assert cli.mode_payload(d0)["trace_defect"] == d0.trace_defect


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
        named = orb.named(("lambda", lam), ("N", d.magnus_steps),
                          ("estimate", d.magnus_error))
        assert d.warning == (
            f"monodromy kept at the orbit's accuracy floor ({named})")
        assert cli.mode_payload(d)["warning"] == d.warning
    # appended to a classification warning: a negative trace
    m = -data[2.0].monodromy
    d = floquet._classified(orb, 2.0, m, 1.0, 512, 1e-9, data[2.0].nodes)
    named = orb.named(("lambda", 2.0), ("N", 512), ("estimate", 1e-09))
    assert d.warning == ("negative trace: factors are antiperiodic; monodromy "
                         f"kept at the orbit's accuracy floor ({named})")


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


def _parent_constant_monodromy(orbit, lam):
    # the closed form and the potential-sign classification as two
    # functions, before they were stated once
    T = orbit.period
    v = float(floquet.ModeOperator(orbit, lam).potential(0.0))
    if v > 0:
        r = math.sqrt(v)
        ch, sh = math.cosh(r * T), math.sinh(r * T)
        m = np.array([[ch, sh / r], [r * sh, ch]])
        cls = floquet.Classification(floquet.TYPE_III, math.sqrt(v), None, None)
    elif v < 0:
        w = math.sqrt(-v)
        cw, sw = math.cos(w * T), math.sin(w * T)
        m = np.array([[cw, sw / w], [-w * sw, cw]])
        cls = floquet.Classification(floquet.TYPE_IV, None, math.sqrt(-v), None)
    else:
        m = np.array([[1.0, T], [0.0, 1.0]])
        cls = floquet.Classification(floquet.TYPE_II, None, None, None)
    return m, cls


CONSTANT_PARAMS = ([fowler.FowlerParams.conformal(n, 1.0) for n in range(3, 9)]
                   + [fowler.FowlerParams.ckn(*nab) for nab in
                      [(5, 0.5, 0.7), (3, 0.0, 0.5), (4, 0.2, 0.2),
                       (6, 1.0, 1.5)]])


@pytest.mark.parametrize("params", CONSTANT_PARAMS, ids=[
    f"{p.kind}-{p.n}" + (f"-{p.a}-{p.b}" if p.kind == "ckn" else "")
    for p in CONSTANT_PARAMS])
def test_constant_closed_form_is_bitwise_the_two_function_form(params):
    orbit = fowler.constant_orbit(params)
    lams = [float(spheres.eigenvalue(k, params.n)) for k in range(13)]
    data = floquet.spectrum(orbit, lams)
    for lam in lams:
        m_ref, cls_ref = _parent_constant_monodromy(orbit, lam)
        m, cls = floquet._constant_monodromy(orbit, lam)
        assert m.tobytes() == m_ref.tobytes() and cls == cls_ref
        d = data[lam]
        assert d.monodromy.tobytes() == m_ref.tobytes()
        assert (d.type, d.sigma, d.omega) == (cls_ref.type, cls_ref.sigma,
                                             cls_ref.omega)


@pytest.mark.parametrize("degree", [112, 113])
def test_an_overflowing_closed_form_is_refused_by_name(degree):
    # degree 112 used to give a datum holding inf, degree 113 a raw
    # OverflowError; degree 111 is the last finite one
    orbit = fowler.constant_orbit(fowler.FowlerParams.conformal(3))
    lam = float(spheres.eigenvalue(degree, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(floquet.spectrum(orbit, [
            spheres.eigenvalue(111, 3)])[12432.0].monodromy).all()
        with pytest.raises(fowler.IntegrationError) as err:
            floquet.spectrum(orbit, [lam])
    named = orbit.named(("lambda", lam), ("T", orbit.period))
    assert str(err.value) == f"constant-orbit monodromy overflows ({named})"
    assert named.startswith("conformal problem, n = 3, k0 = 1.0, xi* = ")
    assert lam not in orbit._floquet
