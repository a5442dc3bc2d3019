"""Correctness checks for the benchmark workloads.

Every check compares a result with a closed form, an independent
computation or a property the method must have, never with a stored copy
of an earlier output.  Each takes the plain-data summary a workload builds
from one pass and returns a list of failure messages (empty when the pass
is correct), so the tests can feed it perturbed results.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PERIOD_RTOL = 1e-6          # shooting period against the energy quadrature
CLOSED_FORM_TOL = 1e-9      # constant-orbit exponents and fixed points
SIGMA1_TOL = 1e-6           # degree-1 exponent and kernel factor (conformal)
DET_TOL = 1e-8              # Liouville determinant of the monodromy
KERNEL_RTOL = 1e-7          # L(q e^{-+sigma t}) under spectral differentiation
RESONANT_RTOL = 1e-6        # resonant solve under a finite-difference operator
INDEX_TOL = 1e-8            # index-set values against brute force
SLOPE_RTOL = 0.05           # fitted decay slope against the target rate
RESIDUAL_RATIO = 1e-2       # construction residual against its forcing
SMALL_NECK = "fowler_small_neck"   # the one cli command known to fail

# 6th-order central second difference on offsets -3..3
FD2_WEIGHTS = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def multiplicity(k: int, n: int) -> int:
    """Dimension of degree-k spherical harmonics on S^{n-1} (closed form)."""
    if k == 0:
        return 1
    return math.comb(n + k - 1, k) - (math.comb(n + k - 3, k - 2) if k >= 2 else 0)


def brute_force_sums(base, cutoff: float, tol: float = INDEX_TOL):
    """All sums sum_i c_i base_i in (0, cutoff] by nested loops, each with
    the count vectors that realize it; values within tol are merged."""
    base = [float(b) for b in base]
    caps = [int(math.floor(cutoff / b + 1e-12)) for b in base]
    found = []
    for counts in itertools.product(*[range(c + 1) for c in caps]):
        total = sum(c * b for c, b in zip(counts, base))
        if not 0.0 < total <= cutoff + tol:
            continue
        for entry in found:
            if abs(entry[0] - total) <= tol:
                entry[1].append(counts)
                break
        else:
            found.append([total, [counts]])
    found.sort(key=lambda e: e[0])
    return found


def _values_match(values, reference, tol=INDEX_TOL):
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return values.shape == reference.shape and bool(
        np.all(np.abs(values - reference) <= tol))


def spectral_derivatives(samples, period: float):
    """First and second derivatives of uniform periodic samples via the FFT."""
    num = samples.size
    k = 2.0 * np.pi * np.fft.fftfreq(num, d=period / num)
    coeffs = np.fft.fft(samples)
    d1 = 1j * k * coeffs
    if num % 2 == 0:
        d1[num // 2] = 0.0
    return (np.real(np.fft.ifft(d1)),
            np.real(np.fft.ifft(-(k * k) * coeffs)))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _constant_fixed_point(n: int, k0: float) -> float:
    """xi* = ((n-2)^2 / (4 K0))^{(n-2)/4}, from q xi = K0 xi^{(n+2)/(n-2)}."""
    return ((n - 2) ** 2 / (4.0 * k0)) ** ((n - 2) / 4.0)


def _constant_sigma(lam: float, n: int) -> float:
    return math.sqrt(lam - n + 2)


def check_cli(results: dict) -> list:
    """Checks on the outputs of the README command lines.

    `results` maps command name -> {"rc", "failed", "files"}.  A command
    that failed with an error record counts as a failed operation; only the
    small-neck orbit may fail, any other failure is a check failure too.
    """
    bad = []
    for name, res in results.items():
        if res["failed"]:
            if name != SMALL_NECK:
                bad.append(f"{name}: failed with {res['error']}")
            continue
        if res["rc"] != 0:
            bad.append(f"{name}: exit code {res['rc']}")
        files = res["files"]
        if name.startswith("fowler") and name != "fowler_constant":
            s = files["orbit_summary.json"]
            rel = abs(s["period"] - s["period_quadrature"]) / s["period"]
            if not rel < PERIOD_RTOL:
                bad.append(f"{name}: shooting period {s['period']!r} vs "
                           f"quadrature {s['period_quadrature']!r} (rel {rel:.2e})")
        elif name == "fowler_constant":
            s = files["orbit_summary.json"]
            xistar = _constant_fixed_point(6, 1.0)
            if not abs(s["epsilon"] - xistar) <= CLOSED_FORM_TOL * xistar:
                bad.append(f"{name}: xi* {s['epsilon']!r} != {xistar!r}")
            omega = math.sqrt(6 - 2)
            if not abs(s["mode0_rotation"] - omega) <= CLOSED_FORM_TOL:
                bad.append(f"{name}: omega {s['mode0_rotation']!r} != {omega!r}")
        elif name == "floquet_constant":
            modes = files["floquet.json"]["modes"]
            if len(modes) != 12:
                bad.append(f"{name}: {len(modes)} modes, expected 12")
            for m in modes:
                ref = _constant_sigma(m["lambda"], 5)
                if m["sigma"] is None or not abs(m["sigma"] - ref) <= CLOSED_FORM_TOL:
                    bad.append(f"{name}: mode {m['index']} sigma {m['sigma']!r} "
                               f"!= sqrt(lambda - n + 2) = {ref!r}")
        elif name == "index_set_constant":
            iset = files["index_set.json"]
            base = [_constant_sigma(k * (k + 3), 5) for k in (1, 2, 3)]
            ref = [e[0] for e in brute_force_sums(base, 4.0)]
            if not _values_match(iset["values"], ref):
                bad.append(f"{name}: values {iset['values']} != brute force {ref}")
        elif name == "expand":
            terms = files["expansion.json"]["terms"]
            layout = [(t["mu"], t["degree"]) for t in terms]
            if layout != [(1.0, 1), (2.0, 2), (2.0, 0)]:
                bad.append(f"{name}: term layout {layout}")
            else:
                # xi'(0) = 0, so the first-order coefficient there is
                # amplitude * (n-2)/2 * eps, eps = 0.8 xi*
                eps = 0.8 * _constant_fixed_point(5, 1.0)
                ref = 0.5 * 1.5 * eps
                got = terms[0]["coeff"][0]
                if not abs(got - ref) <= 1e-9 * ref:
                    bad.append(f"{name}: first-order coefficient at t=0 "
                               f"{got!r} != {ref!r}")
        elif name.startswith("construct"):
            rep = files["construct.json"]
            if not rep["trace"]["converged"]:
                bad.append(f"{name}: construction did not converge")
            rel = abs(rep["fit"]["slope"] / rep["target_rate"] - 1.0)
            if not rel < SLOPE_RTOL:
                bad.append(f"{name}: slope {rep['fit']['slope']!r} vs target "
                           f"{rep['target_rate']!r} (rel {rel:.3f})")
        elif name.startswith("verify"):
            reports = files["verify.json"]
            expected = 11 if name == "verify_all" else 2
            if len(reports) != expected:
                bad.append(f"{name}: {len(reports)} criteria, expected {expected}")
            for r in reports:
                if not r["passed"]:
                    bad.append(f"{name}: criterion {r['name']} failed")
    return bad


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def check_orbit_spectrum(o: dict) -> list:
    """Checks on one orbit's Floquet data, index set and resonant solves."""
    bad = []
    tag = f"{o['kind']} n={o['n']} eps={o['epsilon']:.6g}"
    n = o["n"]
    lams = np.asarray(o["lams"], dtype=float)
    sigmas = np.asarray(o["sigmas"], dtype=float)
    if np.any(np.diff(sigmas) < -1e-9):
        bad.append(f"{tag}: sigma not nondecreasing in lambda: {sigmas}")
    if o["kind"] == "conformal":
        deg1 = lams == n - 1
        err = float(np.max(np.abs(sigmas[deg1] - 1.0)))
        if not err < SIGMA1_TOL:
            bad.append(f"{tag}: degree-1 sigma off 1 by {err:.2e}")
        margin = sigmas**2 - (lams - (3 * n - 2) / 2.0)
        if not np.all(margin > 0):
            bad.append(f"{tag}: sigma^2 > lambda - (3n-2)/2 fails, "
                       f"margins {margin}")
        p_plus = np.asarray(o["p_plus"])
        q1 = np.asarray(o["factors"][0]["q_plus"])
        err = float(np.max(np.abs(q1 - p_plus / p_plus[0])))
        if not err < SIGMA1_TOL:
            bad.append(f"{tag}: degree-1 q+ differs from ((n-2)/2 xi - xi') "
                       f"by {err:.2e}")
    for f in o["factors"]:
        if not f["det_defect"] < DET_TOL:
            bad.append(f"{tag}: Liouville determinant defect "
                       f"{f['det_defect']:.2e} at lambda={f['lam']}")
        v = np.asarray(f["potential"])
        scale_v = f["sigma"] ** 2 + float(np.max(np.abs(v)))
        for key, sign in (("q_plus", -1.0), ("q_minus", 1.0)):
            q = np.asarray(f[key])
            d1, d2 = spectral_derivatives(q, o["period"])
            # e^{-+sigma t} L(q e^{+-sigma t}) = -q'' -+ 2 sigma q' - sigma^2 q + V q
            res = -d2 - sign * 2.0 * f["sigma"] * d1 - f["sigma"] ** 2 * q + v * q
            rel = float(np.max(np.abs(res))) / (float(np.max(np.abs(q))) * scale_v)
            if not rel < KERNEL_RTOL:
                bad.append(f"{tag}: L({key} e^(sigma t)) relative residual "
                           f"{rel:.2e} at lambda={f['lam']}")
    iset = o["index_set"]
    ref = brute_force_sums(iset["base"], iset["cutoff"], iset["tol"])
    if not _values_match(iset["values"], [e[0] for e in ref], iset["tol"]):
        bad.append(f"{tag}: index set {iset['values']} != brute force "
                   f"{[e[0] for e in ref]}")
    else:
        degrees = iset["base_degrees"]
        for (value, combos), caps in zip(ref, iset["caps"]):
            multi = [c for c in combos if sum(c) >= 2]
            if not multi:
                if caps is not None:
                    bad.append(f"{tag}: degree caps reported for single {value}")
                continue
            kmax = max(sum(c * d for c, d in zip(cs, degrees)) for cs in multi)
            mmax = sum(multiplicity(k, n) for k in range(kmax + 1)) - 1
            if caps != [kmax, mmax]:
                bad.append(f"{tag}: degree caps {caps} at {value:.6g} != "
                           f"[{kmax}, {mmax}]")
    for s in o["solves"]:
        if s["resonant"] != s["expect_resonant"] or s["max_power"] != (
                s["t_power"] + s["expect_resonant"]):
            bad.append(f"{tag}: solve at mu={s['mu']!r} resonant={s['resonant']} "
                       f"max_power={s['max_power']}")
        u = np.asarray(s["u"])              # (7, points): stencil rows
        u_tt = FD2_WEIGHTS @ u / s["h"] ** 2
        lhs = -u_tt + np.asarray(s["potential"]) * u[3]
        rhs = np.asarray(s["forcing"])
        rel = float(np.max(np.abs(lhs - rhs))) / float(np.max(np.abs(rhs)))
        if not rel < RESONANT_RTOL:
            bad.append(f"{tag}: resonant solve at mu={s['mu']!r} misses its "
                       f"equation by {rel:.2e} (finite differences)")
    return bad


def check_spectra(results: list) -> list:
    return [msg for o in results for msg in check_orbit_spectrum(o)]


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def check_construction(c: dict) -> list:
    """Convergence, fitted slope and residual of one construction."""
    bad = []
    tag = f"{c['kind']} {c['label']}"
    if not c["converged"]:
        bad.append(f"{tag}: did not converge")
    if c["resonant"]:
        # t e^{-beta t}: the log-corrected slope matches the rate while the
        # plain slope drifts below it
        rel = abs(c["slope_log"] / c["target"] - 1.0)
        if not (rel < SLOPE_RTOL
                and abs(c["slope_log"] - c["target"]) < abs(c["slope_plain"] - c["target"])
                and c["slope_plain"] < c["target"]):
            bad.append(f"{tag}: resonant fit plain {c['slope_plain']!r} / log "
                       f"{c['slope_log']!r} vs rate {c['target']!r}")
    else:
        rel = abs(c["slope_plain"] / c["target"] - 1.0)
        if not rel < SLOPE_RTOL:
            bad.append(f"{tag}: slope {c['slope_plain']!r} vs target "
                       f"{c['target']!r} (rel {rel:.3f})")
    if not c["residual_ratio"] < RESIDUAL_RATIO:
        bad.append(f"{tag}: residual {c['residual_ratio']:.2e} of the forcing")
    return bad


def check_scan(results: list) -> list:
    return [msg for c in results for msg in check_construction(c)]
