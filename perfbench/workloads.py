"""The three benchmark workloads: inputs drawn from a seed, one pass of
fixed work, and the plain-data summary the checks read.

A workload is built in two steps.  The constructor draws the inputs from
the seed; `prepare()` does the one-time preparation that `setup_s` times.
`run_pass()` then does the workload's unit of work and may be repeated:
every call repeats exactly the same work, and `summarize()` turns its raw
result into the data `checks` reads, outside the timed region.  A pass
calls `between()` after each operation (the benchmark times its
calibration kernel there) and opens `region(name)` around each cli command
(a tracer span).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

import checks

from fowlerlab import (cli, cylinder, expansion, floquet, fowler, index_set,
                       spheres)
from fowlerlab.fowler import FowlerParams, constant_solution


def no_region(name):
    """Stand-in for a tracer region when the pass is not traced."""
    return contextlib.nullcontext()


def nothing():
    """Stand-in for the hook a pass calls between its operations."""


# ---------------------------------------------------------------------------
# cli: the README command lines, run in-process
# ---------------------------------------------------------------------------

README_COMMANDS = (
    ("fowler_orbit", "fowler --n 5 --k0 1 --epsilon 0.4"),
    ("fowler_constant", "fowler --constant --n 6"),
    ("fowler_ckn", "fowler --problem ckn --n 5 --a 0.5 --b 0.7 --epsilon 0.3"),
    ("floquet_constant", "floquet --n 5 --constant --modes 12"),
    ("index_set_constant", "index-set --n 5 --constant --cutoff 4"),
    ("expand", "expand --n 5 --epsilon-frac 0.8 --order 2"),
    ("construct_conformal",
     "construct --n 5 --epsilon-frac 0.5 --beta 1.5 --max-degree 2"),
    ("construct_ckn", "construct --problem ckn --n 5 --a 0.5 --b 0.7 "
                      "--epsilon-frac 0.4 --nu 2.4"),
    ("verify_all", "verify"),
    ("verify_named", "verify --suite xi2 --suite remark"),
)
# The small-neck n = 8 orbit fails in fowler.periodic_orbit (Hamiltonian
# drift check) on every run; it stays in the pass as a failed operation.
SMALL_NECK = (checks.SMALL_NECK, "fowler --n 8 --epsilon-frac 0.001")
CLI_COMMANDS = README_COMMANDS + (SMALL_NECK,)
OUTPUT_FILES = ("orbit_summary.json", "floquet.json", "index_set.json",
                "expansion.json", "construct.json", "verify.json")


class CliWorkload:
    """Every README command line through `fowlerlab.cli.main`.

    Each command builds its orbits, spectra and inverse contexts fresh, the
    way a user pays for them.  The inputs are the README's command lines,
    run in README order, so the seed changes nothing here: a seeded order
    put the calibration kernel behind different commands in different
    runs, which moved its median.
    """

    name = "cli"

    def __init__(self, seed: int, workdir: str):
        self.commands = list(CLI_COMMANDS)
        self.workdir = workdir

    @property
    def operations(self) -> int:
        return len(self.commands)

    def prepare(self):
        for name, _ in self.commands:
            os.makedirs(os.path.join(self.workdir, name), exist_ok=True)

    def run_pass(self, region=no_region, between=nothing):
        out = {}
        for name, line in self.commands:
            argv = line.split() + ["--outdir", os.path.join(self.workdir, name)]
            buf = io.StringIO()
            with region("cli." + name), contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            out[name] = (rc, buf.getvalue())
            between()
        return out

    def summarize(self, raw) -> dict:
        results = {}
        for name, (rc, stdout) in raw.items():
            lines = stdout.strip().splitlines()
            error = None
            if rc != 0 and lines and lines[-1].startswith('{"error"'):
                error = json.loads(lines[-1])
            files = {}
            for fname in OUTPUT_FILES:
                path = os.path.join(self.workdir, name, fname)
                if error is None and os.path.exists(path):
                    with open(path) as fh:
                        files[fname] = json.load(fh)
            results[name] = {"rc": rc, "failed": error is not None,
                             "error": error, "files": files}
        return results

    def failed(self, summary) -> int:
        return sum(r["failed"] for r in summary.values())

    def check(self, summary) -> list:
        return checks.check_cli(summary)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# spectra: Floquet data, index sets and resonant solves over an orbit grid
# ---------------------------------------------------------------------------

SPECTRA_DEGREE = 2           # kernel factors for harmonic degrees 1..D
OUTPUT_GRID = 256            # the q+- grid `floquet` writes
# eps / xi* bands per conformal n.  They avoid [0.5, 0.6), where the
# degree-1 resonant solve fails its residual limit for n = 7, 8.
CONFORMAL_STRATA = ((0.30, 0.40), (0.70, 0.80))
# CKN (n, a, b): the resonant solve fails its residual limit at some other
# (a, b), e.g. (5, 0.436, 0.613), so the CKN parameters are fixed and only
# eps is drawn.
CKN_PARAMS = ((4, 0.4, 0.75), (5, 0.6, 0.95))
STENCIL = np.arange(-3, 4)


def _draw_spectra(rng):
    """Orbit specifications.  Each conformal n gets one eps/xi* from each
    band, so every seed draws a grid of the same shape and cost."""
    specs = []
    for n in range(3, 9):
        for lo, hi in CONFORMAL_STRATA:
            specs.append({"kind": "conformal", "n": n,
                          "frac": float(rng.uniform(lo, hi))})
    for n, a, b in CKN_PARAMS:
        specs.append({"kind": "ckn", "n": n, "a": a, "b": b,
                      "frac": float(rng.uniform(0.35, 0.5))})
    for spec in specs:
        # forcing a(t) = 1 + c1 cos(2 pi t/T) + c2 sin(4 pi t/T)
        spec["forcing"] = [float(c) for c in rng.uniform(-0.3, 0.3, size=2)]
        # non-resonant rate: a fraction of the way from sigma_1 to sigma_2
        spec["mu_frac"] = float(rng.uniform(0.35, 0.65))
    return specs


def _params(spec) -> FowlerParams:
    if spec["kind"] == "conformal":
        return FowlerParams.conformal(spec["n"], 1.0)
    return FowlerParams.ckn(spec["n"], spec["a"], spec["b"])


def _forcing(spec, t, period):
    c1, c2 = spec["forcing"]
    w = 2.0 * np.pi / period
    return 1.0 + c1 * np.cos(w * t) + c2 * np.sin(2.0 * w * t)


class SpectraWorkload:
    """Floquet layer over a grid of conformal orbits (n = 3..8, two eps/xi*
    bands) and CKN orbits.

    Per orbit: monodromy, classification and kernel factors for degrees
    1..D; q+- on the 256-point output grid; the index set and degree caps
    built from the spectrum; one resonant solve (degree 1, mu = sigma_1)
    and one non-resonant solve with a t-power (degree 2).  Orbits are built
    fresh in every pass, so no pass reuses another's cached spectra.
    """

    name = "spectra"

    def __init__(self, seed: int):
        self.specs = _draw_spectra(np.random.default_rng(seed))

    @property
    def operations(self) -> int:
        return 3 * len(self.specs)   # spectrum + two resonant-mode solves

    def prepare(self):
        pass

    def run_pass(self, region=no_region, between=nothing):
        out = []
        for spec in self.specs:
            out.append(self._orbit_chain(spec))
            between()
        return out

    def _orbit_chain(self, spec):
        params = _params(spec)
        orbit = fowler.periodic_orbit(spec["frac"] * constant_solution(params), params)
        n, T = params.n, orbit.period
        count = spheres.index_of_last_degree(n, SPECTRA_DEGREE)
        data = floquet.exponent_sequence(orbit, count, with_factors=True)
        ts = np.arange(OUTPUT_GRID) * (T / OUTPUT_GRID)
        distinct = {}
        for d in data:
            distinct.setdefault(d.lam, d)
        factors = [(d, d.q_plus(ts), d.q_minus(ts)) for d in distinct.values()]
        sigmas = [d.sigma for d in data]
        degrees = [d.degree for d in data]
        cutoff = max(sigmas) + 1.5
        iset = index_set.generate(sigmas, cutoff, degrees=degrees)
        caps = [list(index_set.degree_caps(iset, v, n)) if m else None
                for v, m in zip(iset.values, iset.multi)]
        d1, d2 = factors[0][0], factors[-1][0]
        nodes = np.arange(expansion.COLLOCATION_SIZE) * (
            T / expansion.COLLOCATION_SIZE)
        a_nodes = _forcing(spec, nodes, T)
        mu2 = d1.sigma + spec["mu_frac"] * (d2.sigma - d1.sigma)
        solves = [
            (floquet.ModeOperator(orbit, d1.lam), d1.sigma, 0, True),
            (floquet.ModeOperator(orbit, d2.lam), mu2, 1, False),
        ]
        sols = [(op, expansion.solve_resonant_mode(a_nodes, mu, op, t_power=m), m, res)
                for op, mu, m, res in solves]
        return orbit, data, factors, iset, caps, sols

    def summarize(self, raw) -> list:
        return [self._summarize_orbit(spec, *chain)
                for spec, chain in zip(self.specs, raw)]

    def _summarize_orbit(self, spec, orbit, data, factors, iset, caps, sols):
        p = orbit.params
        T = orbit.period
        ts = np.arange(OUTPUT_GRID) * (T / OUTPUT_GRID)
        xi = orbit.value(ts)

        def potential(lam, t, xi_t):
            return lam + p.q - p.e * p.c * xi_t ** (p.e - 1.0)

        out = {
            "kind": p.kind, "n": p.n, "epsilon": orbit.epsilon, "period": T,
            "lams": [d.lam for d in data], "sigmas": [d.sigma for d in data],
            "p_plus": ((p.n - 2) / 2.0 * xi - orbit.derivative(ts)).tolist(),
            "factors": [{"lam": d.lam, "sigma": d.sigma,
                         "det_defect": d.det_defect,
                         "q_plus": qp.tolist(), "q_minus": qm.tolist(),
                         "potential": potential(d.lam, ts, xi).tolist()}
                        for d, qp, qm in factors],
            "index_set": {"base": [b.value for b in iset.base],
                          "base_degrees": [b.degree for b in iset.base],
                          "cutoff": iset.cutoff, "tol": iset.tol,
                          "values": iset.values.tolist(), "caps": caps},
            "solves": [],
        }
        # check points sit between collocation nodes, one period out
        num = expansion.COLLOCATION_SIZE
        pts = T + (np.arange(0, num, 4) + 0.37) * (T / num)
        h = T / (8 * num)
        for op, sol, m, expect in sols:
            out["solves"].append({
                "mu": sol.mu, "t_power": m, "resonant": sol.resonant,
                "expect_resonant": expect, "max_power": sol.max_power, "h": h,
                "u": np.array([sol.evaluate(pts + k * h) for k in STENCIL]).tolist(),
                "potential": potential(op.lam, pts, orbit.value(pts)).tolist(),
                "forcing": (_forcing(spec, pts, T) * pts**m
                            * np.exp(-sol.mu * pts)).tolist()})
        return out

    def failed(self, summary) -> int:
        return 0

    def check(self, summary) -> list:
        return checks.check_spectra(summary)

    def close(self):
        pass


# ---------------------------------------------------------------------------
# scan: warm fixed-point constructions over forcing profiles and rates
# ---------------------------------------------------------------------------

# Rate bands where the period-aligned slope fit is accurate for the n = 5,
# eps = 0.5 xi* orbit (sigma_1 = 1, sigma_2 = 2.749): per harmonic degree of
# the forcing, (lo, hi) of beta.
PROFILE_BANDS = {0: (1.3, 2.5), 1: (1.6, 2.6), 2: (2.85, 3.0)}
KAPPA_BAND = (0.02, 0.08)
CKN_RATE_BAND = (2.0, 2.9)   # above sigma_1 = 1.818, below the 3.054 exponent


def _stratified(rng, lo, hi, count):
    """One uniform draw from each of `count` equal slices of [lo, hi]."""
    edges = np.linspace(lo, hi, count + 1)
    return [float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def _period_aligned_window(field, orbit):
    """Whole orbit periods from t0 + 0.5 to 1.5 before the window's end, as
    `verify` fits them; kept here so a library change cannot move it."""
    lo = field.t[0] + 0.5
    k = max(1, int(math.floor((field.t[-1] - 1.5 - lo) / orbit.period)))
    return lo, lo + k * orbit.period


class ScanWorkload:
    """Forcing-rate scan on warm inverse contexts.

    Set-up builds a conformal (n = 5, eps = 0.5 xi*) and a CKN (n = 5,
    a = 0.5, b = 0.7, eps = 0.4 xi*) orbit and warms their inverse contexts
    with one construction each.  A pass runs contraction_construct over
    forcing profiles (degree, kappa, beta), including resonant beta = sigma_1
    profiles, and ckn_construct over rates nu, each followed by a decay fit
    and the residual of the constructed field.
    """

    name = "scan"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.profiles = []
        for degree, (lo, hi) in PROFILE_BANDS.items():
            betas = _stratified(rng, lo, hi, 6)
            kappas = _stratified(rng, *KAPPA_BAND, 6)
            rng.shuffle(kappas)
            self.profiles += [(degree, k, b) for k, b in zip(kappas, betas)]
        self.profiles += [(1, k, 1.0) for k in _stratified(rng, *KAPPA_BAND, 3)]
        self.rates = _stratified(rng, *CKN_RATE_BAND, 10)

    @property
    def operations(self) -> int:
        return len(self.profiles) + len(self.rates)

    def prepare(self):
        params = FowlerParams.conformal(5, 1.0)
        self.orbit = fowler.periodic_orbit(0.5 * constant_solution(params), params)
        ckn = FowlerParams.ckn(5, 0.5, 0.7)
        self.ckn_orbit = fowler.periodic_orbit(0.4 * constant_solution(ckn), ckn)
        # one construction per orbit builds every inverse context the pass uses
        cylinder.contraction_construct(
            self.orbit, cylinder.ForcingProfile(k0=1.0, components=((1, 0.05, 1.5),)))
        cylinder.ckn_construct(self.ckn_orbit, 2.4)

    def run_pass(self, region=no_region, between=nothing):
        out = []
        for degree, kappa, beta in self.profiles:
            profile = cylinder.ForcingProfile(k0=1.0,
                                              components=((degree, kappa, beta),))
            v, trace = cylinder.contraction_construct(self.orbit, profile)
            diff = v.combination(cylinder.orbit_field(self.orbit, v.t), 1.0, -1.0)
            fit = cylinder.decay_rate_fit(
                diff, t_window=_period_aligned_window(v, self.orbit))
            out.append(("conformal", (degree, kappa, beta), v, trace, fit,
                        cylinder.residual_M(v, profile)))
            between()
        for nu in self.rates:
            w, w_hat, trace = cylinder.ckn_construct(self.ckn_orbit, nu)
            fit = cylinder.decay_rate_fit(
                w.combination(w_hat, 1.0, -1.0),
                t_window=_period_aligned_window(w, self.ckn_orbit))
            out.append(("ckn", nu, w_hat, trace, fit, cylinder.residual_N(w)))
            between()
        return out

    def summarize(self, raw) -> list:
        grid = cylinder.make_grid()
        flat = cylinder.ForcingProfile(k0=1.0)
        floor_m = cylinder.residual_M(cylinder.orbit_field(self.orbit, grid), flat).coeffs
        floor_n = cylinder.residual_N(cylinder.orbit_field(self.ckn_orbit, grid)).coeffs
        xi_e = self.orbit.value(grid) ** self.orbit.params.e
        out = []
        for kind, label, field, trace, fit, res in raw:
            # residual of the constructed field above the discretization
            # floor of the orbit itself, against the size of the forcing:
            # (K - K0) xi^e for M, the residual N(w_hat) for the CKN problem
            if kind == "conformal":
                degree, kappa, beta = label
                defect = res.coeffs - floor_m
                forcing = kappa * np.exp(-beta * grid) * xi_e
                target, resonant = beta, beta == 1.0
            else:
                defect = res.coeffs - floor_n
                forcing = np.abs(cylinder.residual_N(field).coeffs - floor_n)
                target, resonant = label, False
            ratio = float(np.max(np.abs(defect[:, 2:-2]))) / float(np.max(forcing))
            out.append({"kind": kind, "label": repr(label), "target": target,
                        "resonant": resonant, "converged": trace.converged,
                        "escalations": trace.escalations,
                        "iterations": trace.iterations,
                        "slope_plain": float(fit.slope_plain),
                        "slope_log": float(fit.slope_log),
                        "residual_ratio": ratio})
        return out

    def failed(self, summary) -> int:
        return 0

    def check(self, summary) -> list:
        return checks.check_scan(summary)

    def close(self):
        pass


def make(name: str, seed: int, workdir: str):
    if name == "cli":
        return CliWorkload(seed, workdir)
    if name == "spectra":
        return SpectraWorkload(seed)
    if name == "scan":
        return ScanWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
