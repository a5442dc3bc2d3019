"""Quantitative desk-scale checks bundled behind `verify` and the test suite.

Each criterion returns a dict with `name`, `passed`, `runtime_s`, and a
`details` payload carrying every measured number and its tolerance, so both
the CLI and the tests report from one source of truth.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import cylinder, expansion, floquet, index_set, spheres
from .fowler import (FowlerParams, constant_orbit, constant_solution,
                     periodic_orbit, period_quadrature)

SEED = 20240801  # the random draws of the index-set oracle and the example


def _conformal_orbits(dims, frac):
    """The constant and the periodic conformal orbit (K(0) = 1, minimum
    frac xi*) of each dimension n in dims, as (n, orbit, tag)."""
    for n in dims:
        params = FowlerParams.conformal(n, 1.0)
        yield n, constant_orbit(params), "constant"
        yield (n, periodic_orbit(frac * constant_solution(params), params),
               "nonconstant")


def _wrap(name, alias=None, shares=False):
    """A criterion body as a report-returning criterion, reached in `SUITES`
    by its name and by its short alias, if it has one.  With `shares`, the
    body takes the dict `run_suite` passes to every criterion of one run
    (an empty one when called on its own) and reuses what it holds."""
    def deco(fn):
        def run(share=None):
            start = time.perf_counter()
            if shares:
                passed, details = fn({} if share is None else share)
            else:
                passed, details = fn()
            return {"name": name, "passed": bool(passed),
                    "runtime_s": time.perf_counter() - start,
                    "details": details}
        run.criterion_name, run.criterion_alias = name, alias
        return run
    return deco


@_wrap("constant_floquet_closed_form", "floquet-const")
def check_constant_floquet():
    """sigma_i = sqrt(lambda_i - n + 2) on constant conformal orbits, 1e-9."""
    tol = 1e-9
    worst = 0.0
    for n in range(3, 9):
        orb = constant_orbit(FowlerParams.conformal(n, 1.0))
        data = floquet.exponent_sequence(orb, 12)
        for d in data:
            worst = max(worst, abs(d.sigma - math.sqrt(d.lam - n + 2)))
    return worst < tol, {"max_abs_error": worst, "tolerance": tol,
                         "dimensions": list(range(3, 9)), "modes": 12}


@_wrap("nonconstant_kernel_factors", "floquet-nonconst")
def check_nonconstant_kernel():
    """sigma_1..n = 1 within 1e-6 and q+ = (n-2)/2 xi - xi' pointwise 1e-6."""
    tol = 1e-6
    worst_sigma, worst_factor = 0.0, 0.0
    cases = []
    for n in (4, 5, 6):
        params = FowlerParams.conformal(n, 1.0)
        xistar = constant_solution(params)
        for frac in (0.3, 0.55, 0.8):
            orb = periodic_orbit(frac * xistar, params)
            data = floquet.exponent_sequence(orb, n, with_factors=True)
            sig_err = max(abs(d.sigma - 1.0) for d in data)
            p_plus = (n - 2) / 2.0 * orb.xi - orb.xi_prime
            fac_err = float(np.max(np.abs(data[0].q_plus(orb.t) - p_plus / p_plus[0])))
            worst_sigma = max(worst_sigma, sig_err)
            worst_factor = max(worst_factor, fac_err)
            cases.append({"n": n, "epsilon_frac": frac, "sigma_error": sig_err,
                          "factor_error": fac_err})
    ok = worst_sigma < tol and worst_factor < tol
    return ok, {"max_sigma_error": worst_sigma, "max_factor_error": worst_factor,
                "tolerance": tol, "cases": cases}


@_wrap("exponent_lower_bound", "bounds")
def check_lower_bound():
    """rho_i^2 > lambda_i - (3n-2)/2 with positive margin; mu_2 = 2 for n >= 6."""
    count = 12
    all_ok = True
    records = []
    for n, orb, tag in _conformal_orbits(range(3, 9), 0.5):
        data = floquet.exponent_sequence(orb, count)
        report = floquet.lower_bound_check(data, orb)
        entry = {"n": n, "orbit": tag, "ok": report.ok,
                 "min_margin": float(np.min(report.margins))}
        if n >= 6:
            sig = [d.sigma for d in data]
            deg = [d.degree for d in data]
            iset = index_set.generate(sig, 2.5, degrees=deg)
            entry["mu2"] = float(iset.values[1])
            entry["mu2_ok"] = abs(entry["mu2"] - 2.0) < 1e-9
            all_ok &= entry["mu2_ok"]
        all_ok &= report.ok
        records.append(entry)
    return all_ok, {"records": records, "modes": count}


@_wrap("hamiltonian_and_period", "hamiltonian")
def check_hamiltonian_period():
    """Energy drift < 1e-9, quadrature/shooting < 1e-6, -ln eps period growth."""
    drift_tol, agree_tol = 1e-9, 1e-6
    sweeps = [FowlerParams.conformal(3, 1.0),
              FowlerParams.conformal(5, (5 - 2) ** 2 / 4.0),
              FowlerParams.ckn(5, 0.5, 0.7)]
    worst_drift, worst_agree = 0.0, 0.0
    for params in sweeps:
        xistar = constant_solution(params)
        for frac in (0.2, 0.5, 0.8):
            orb = periodic_orbit(frac * xistar, params, tol=1e-11)
            worst_drift = max(worst_drift, orb.energy_drift)
            tq = period_quadrature(orb.epsilon, params)
            worst_agree = max(worst_agree, abs(tq - orb.period) / orb.period)
    # slow-orbit limit: T grows like (2 / sqrt(q)) (-ln eps) + O(1)
    params = FowlerParams.ckn(5, 0.0, 0.0)
    eps_list = [10.0 ** (-k) for k in range(1, 5)]
    periods = [period_quadrature(eps, params) for eps in eps_list]
    logs = [-math.log(eps) for eps in eps_list]
    slope = np.polyfit(logs, periods, 1)[0]
    slope_expected = 2.0 / math.sqrt(params.q)
    ratios = [T / L for T, L in zip(periods, logs)]
    ratio_steps = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    stabilizes = all(b < a for a, b in zip(ratio_steps, ratio_steps[1:]))
    slope_ok = abs(slope / slope_expected - 1.0) < 0.01
    ok = worst_drift < drift_tol and worst_agree < agree_tol and \
        stabilizes and slope_ok
    return ok, {"max_drift": worst_drift, "drift_tolerance": drift_tol,
                "max_period_disagreement": worst_agree,
                "agreement_tolerance": agree_tol,
                "orbit_integration_tol": 1e-11,
                "period_ratios": ratios, "ratio_steps": ratio_steps,
                "log_slope": float(slope), "log_slope_expected": slope_expected}


@_wrap("second_order_operator_identity", "xi2")
def check_xi2_identity():
    """|| L xi_2 - explicit quadratic source ||_inf < 1e-6, n in {6,7,8}."""
    tol = 1e-6
    worst = 0.0
    records = []
    for n, orb, tag in _conformal_orbits((6, 7, 8), 0.6):
        defect = expansion.xi2_identity_defect(orb)
        worst = max(worst, defect)
        records.append({"n": n, "orbit": tag, "defect": defect})
    return worst < tol, {"max_defect": worst, "tolerance": tol,
                         "records": records}


@_wrap("translate_expansion_orders", "translate")
def check_translate_orders():
    """Remainder slopes of xi_a minus order-1/order-2 sums: 2 and 3 within 10%."""
    params = FowlerParams.conformal(5, 1.0)
    orb = periodic_orbit(0.8 * constant_solution(params), params)
    amag = 0.9
    a = np.zeros(5)
    a[0] = amag
    ts = np.linspace(5.0, 12.0, 141)
    svals = np.linspace(-1.0, 1.0, 21)
    exact = np.array([expansion.translate_zonal(orb, amag, ts, s)
                      for s in svals]).T
    base = orb.value(ts)[:, None]
    fits = {}
    for order, target in ((1, 2.0), (2, 3.0)):
        terms = expansion.translate_expansion(orb, a, order)
        model = expansion.evaluate_terms(terms, ts, svals)
        rem = np.max(np.abs(exact - base - model), axis=1)
        fit = cylinder.decay_rate_fit((ts, rem), floor=3e-14)
        fits[order] = {"slope": fit.slope_plain, "target": target,
                       "relative_error": abs(fit.slope_plain / target - 1.0),
                       "n_points": fit.n_points, "window": fit.window}
    ok = all(f["relative_error"] < 0.10 for f in fits.values())
    return ok, {"order_1": fits[1], "order_2": fits[2], "amplitude": amag}


def _brute_force_sums(rho, cutoff, tol):
    """Every sum of counts times rho on the whole count grid, count i up to
    cutoff / rho_i, kept in (0, cutoff + tol) and rounded to units of tol."""
    rho = np.asarray(rho, dtype=float)
    caps = [int(math.floor(cutoff / r + tol)) for r in rho]
    # axis i of the grid holds count_i rho_i; the terms are added in order
    sums = 0.0
    for terms in np.ix_(*[np.arange(c + 1) * r for c, r in zip(caps, rho)]):
        sums = sums + terms
    sums = sums[(sums > 0.0) & (sums <= cutoff + tol)]
    return np.unique(np.rint(sums / tol).astype(np.int64)).tolist()


@_wrap("index_set_oracle", "index")
def check_index_oracle():
    """generate == nested-loop enumeration; mu_2 = min(2, rho_{n+1})."""
    rng = np.random.default_rng(SEED)
    tol = 1e-9
    mismatches = 0
    for _ in range(10):
        k = int(rng.integers(1, 5))
        rho = np.sort(rng.uniform(0.5, 2.5, size=k))
        cutoff = float(rng.uniform(3.0, 6.0))
        mine = index_set.generate(rho, cutoff, tol)
        ref = _brute_force_sums(rho, cutoff, tol)
        if [round(v / tol) for v in mine.values] != ref:
            mismatches += 1
    mu2_records = []
    mu2_ok = True
    for n, orb, tag in _conformal_orbits(range(3, 9), 0.45):
        data = floquet.exponent_sequence(orb, n + 1)
        sig = [d.sigma for d in data]
        iset = index_set.generate(sig, 3.0, degrees=[d.degree for d in data])
        expected = min(2.0, sig[-1])
        err = abs(float(iset.values[1]) - expected)
        mu2_ok &= err < 1e-9
        mu2_records.append({"n": n, "orbit": tag, "mu2": float(iset.values[1]),
                            "expected": expected, "error": err})
    return mismatches == 0 and mu2_ok, {
        "oracle_mismatches": mismatches, "trials": 10, "tol": tol,
        "mu2_records": mu2_records}


def _construction_orbit(share: dict):
    """The orbit of both construction criteria, shot once per `share`: its
    Floquet data and window contexts then serve the second criterion too."""
    if "construction_orbit" not in share:
        params = FowlerParams.conformal(5, 1.0)
        share["construction_orbit"] = periodic_orbit(
            0.5 * constant_solution(params), params)
    return share["construction_orbit"]


def _constructed(share: dict, beta: float):
    """The construction forced at rate beta near the construction orbit, made
    once per `share`: the orbit, its trace, and v - xi with its decay fit."""
    key = ("constructed", beta)
    if key not in share:
        orb = _construction_orbit(share)
        profile = cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, beta),))
        v, trace = cylinder.contraction_construct(orb, profile)
        diff, fit = cylinder.perturbation_fit(
            v, cylinder.orbit_field(orb, v.t), orb)
        share[key] = orb, trace, diff, fit
    return share[key]


@_wrap("contraction_construction", "construct", shares=True)
def check_contraction(share):
    """Constructed v has |v - xi| decaying at the forcing rate; at beta =
    sigma_1 the t e^{-beta t} model wins."""
    beta_values, resonant_beta = (1.5, 2.5), 1.0
    records = []
    ok = True
    for beta in beta_values:
        orb, trace, _, fit = _constructed(share, beta)
        rel = abs(fit.slope_plain / beta - 1.0)
        ok &= rel < 0.05 and trace.converged
        records.append({"beta": beta, "slope": fit.slope_plain,
                        "relative_error": rel, "r2": fit.r2_plain,
                        "iterations": trace.iterations,
                        "factors": trace.factors[-3:],
                        "log_corrected": fit.log_corrected})
    orb, trace, _, fit = _constructed(share, resonant_beta)
    rel = abs(fit.slope_log / resonant_beta - 1.0)
    # t e^{-beta t} signature: the log-corrected slope matches the rate while
    # the plain slope drifts below it
    prefers_log = (abs(fit.slope_log - resonant_beta)
                   < abs(fit.slope_plain - resonant_beta))
    drift_below = fit.slope_plain < resonant_beta
    ok &= prefers_log and drift_below and rel < 0.05
    records.append({"beta": resonant_beta, "resonant": True,
                    "log_model_preferred": prefers_log,
                    "plain_slope_drifts_below": drift_below,
                    "slope_plain": fit.slope_plain,
                    "slope_log": fit.slope_log, "relative_error": rel,
                    "r2_plain": fit.r2_plain, "r2_log": fit.r2_log})
    return ok, {"records": records, "epsilon": orb.epsilon}


@_wrap("first_order_expansion_of_constructed", "first-order", shares=True)
def check_first_order_expansion(share):
    """decay fit of v - xi - xi_1 lies in the predicted window (1, 2)."""
    beta = 1.5
    orb, _, diff, _ = _constructed(share, beta)
    c1 = cylinder.fit_kernel_amplitude(diff, orb)
    term = expansion.first_order_term(orb, amplitude=c1)
    svals = np.linspace(-1.0, 1.0, 201)
    resid = np.abs(diff.on_cosines(201) - term.evaluate(diff.t, svals))
    sup = np.max(resid, axis=1)
    fit = cylinder.decay_rate_fit(
        (diff.t, sup), t_window=cylinder.period_aligned_window(diff, orb))
    gamma = fit.slope_plain
    ok = 1.0 < gamma < 2.0
    return ok, {"gamma": gamma, "window": (1.0, 2.0), "kernel_amplitude": c1,
                "beta": beta, "r2": fit.r2_plain}


def _example_u(x):
    """|x|^{-1} (1 + (x1+..+x4)(1 - ln|x|)/16) in dimension 4, at each point
    of a stack x (coordinates on the last axis)."""
    r = np.linalg.norm(x, axis=-1)
    return (1.0 + np.sum(x, axis=-1) * (1.0 - np.log(r)) / 16.0) / r


def _example_k(x):
    """The K of the pair, -Delta u = K u^3, at each point of a stack x."""
    r = np.linalg.norm(x, axis=-1)
    s = np.sum(x, axis=-1)
    a = s * (1.0 - np.log(r)) / 16.0
    return (1.0 + 3.0 * a + s / 8.0) / (1.0 + a) ** 3


def _fd_laplacian(func, x, h):
    """The 4th-order stencil Laplacian of func at each row of x (points, dim),
    from one call of func on all (points, dim, 5) stencil points."""
    dim = x.shape[-1]
    y = np.broadcast_to(x[:, None, None, :], (len(x), dim, 5, dim)).copy()
    axes = np.arange(dim)
    y[:, axes, :, axes] += np.arange(-2, 3) * h
    return np.sum(func(y) @ cylinder._D2_INTERIOR, axis=-1) / (h * h)


def gradient_at_origin_estimate():
    """Componentwise one-sided estimate of grad K at 0 from radii 1e-2..1e-5.

    The difference quotient carries t ln^2 t corrections; a least-squares fit
    against the matching slowly-varying basis extrapolates them away.
    """
    radii = np.geomspace(1e-2, 1e-5, 8)
    # (radius, axis) difference quotients, one column per axis
    g = (_example_k(radii[:, None, None] * np.eye(4)) - 1.0) / radii[:, None]
    l_ = np.log(radii)
    design = np.column_stack([
        np.ones_like(radii),
        radii * (1.0 - l_),
        radii * (1.0 - l_) ** 2,
        radii**2 * (1.0 - l_) ** 3,
        radii**2 * (1.0 - l_) ** 4,
    ])
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    return coef[0]


def remark_example_check() -> dict:
    """Pointwise self-check of the explicit dimension-4 singular pair (u, K).

    Evaluates |-Delta u - K u^3| with the 4th-order stencil at 24 sample
    points with |x| in [0.3, 0.7] at steps h = 0.02 and h/2; the residual
    ratio must sit near 2^4 = 16.  Also extrapolates grad K(0).
    """
    num_points, h = 24, 0.02
    rng = np.random.default_rng(SEED)
    points = np.empty((num_points, 4))
    for x in points:  # per point: a direction, then its radius
        x[:] = rng.normal(size=4)
        x *= rng.uniform(0.3, 0.7) / np.linalg.norm(x)
    source = _example_k(points) * _example_u(points) ** 3

    def residual(step):
        return float(np.max(np.abs(_fd_laplacian(_example_u, points, step)
                                   + source)))

    res_h = residual(h)
    res_h2 = residual(h / 2.0)
    grad = gradient_at_origin_estimate()
    return {
        "h": h,
        "residual_h": res_h,
        "residual_h_over_2": res_h2,
        "refinement_ratio": res_h / res_h2 if res_h2 > 0 else math.inf,
        "grad_k_origin": grad.tolist(),
        "grad_k_error": float(np.max(np.abs(grad - 0.125))),
        "num_points": num_points,
    }


@_wrap("dimension4_example", "remark")
def check_remark_example():
    """4th-order residual convergence and grad K(0) = (1/8, ..., 1/8)."""
    report = remark_example_check()
    ratio_ok = 14.0 <= report["refinement_ratio"] <= 18.0
    grad_ok = report["grad_k_error"] < 1e-4
    return ratio_ok and grad_ok, report


@_wrap("ckn_branch", "ckn")
def check_ckn():
    """CKN: constant-orbit closed form, exponent ordering and q+ positivity,
    and the N-operator contraction with slope within 5% of nu = 2.4."""
    nu, tol_const = 2.4, 1e-9
    params = FowlerParams.ckn(5, 0.5, 0.7)
    n = params.n
    const = constant_orbit(params)
    data_c = floquet.exponent_sequence(const, 12)
    worst_const = max(
        abs(d.sigma - math.sqrt(d.lam - (params.p - 2.0) * params.q))
        for d in data_c)

    orb = periodic_orbit(0.4 * constant_solution(params), params)
    count = spheres.index_of_last_degree(n, 2)
    data = floquet.exponent_sequence(orb, count, with_factors=True)
    sig = [d.sigma for d in data]
    ordering_ok = (max(abs(s - sig[0]) for s in sig[:n]) < 1e-6
                   and sig[n] > sig[0] + 1e-6)
    # the modes of one degree share their factors: one evaluation per lambda
    factors = {d.lam: d.q_plus for d in data[n:] if d.q_plus is not None}
    qplus_min = min(float(np.min(q(orb.t))) for q in factors.values())

    # nu must avoid the index set; then |w - w_hat| decays at rate nu
    iset = index_set.generate(sig, nu + 1.0, degrees=[d.degree for d in data])
    gap = float(np.min(np.abs(iset.values - nu)))
    w, w_hat, trace = cylinder.ckn_construct(orb, nu)
    _, fit = cylinder.perturbation_fit(w, w_hat, orb)
    rel = abs(fit.slope_plain / nu - 1.0)
    ok = (worst_const < tol_const and ordering_ok and qplus_min > 0.0
          and rel < 0.05 and trace.converged)
    return ok, {"constant_sigma_error": worst_const,
                "constant_tolerance": tol_const,
                "sigma_first": sig[0], "sigma_next": sig[n],
                "ordering_ok": ordering_ok, "qplus_min": qplus_min,
                "nu": nu, "index_gap": gap, "slope": fit.slope_plain,
                "relative_error": rel, "iterations": trace.iterations}


# every criterion of this module, in definition order
ALL_CRITERIA = [fn for fn in list(globals().values())
                if hasattr(fn, "criterion_name")]

# every criterion by its name and by its alias
SUITES = {key: fn for fn in ALL_CRITERIA
          for key in (fn.criterion_name, fn.criterion_alias) if key}


def run_suite(names=None) -> list:
    """Run the named criteria (all by default) and return their reports."""
    if not names or names == ["all"]:
        fns = list(ALL_CRITERIA)
    else:
        unknown = [x for x in names if x not in SUITES]
        if unknown:
            raise KeyError(f"unknown suite name(s): {unknown}; "
                           f"choose from {sorted(SUITES)}")
        fns = [SUITES[x] for x in names]
    # one run shares the construction orbit; the next run shoots its own
    share = {}
    return [fn(share) for fn in fns]
