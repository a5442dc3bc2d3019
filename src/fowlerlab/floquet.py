"""Floquet analysis of the mode operators linearized at a Fowler orbit.

Restricting the linearization of the cylinder equation to the i-th
spherical-harmonic mode gives the Hill-type operator

    L_i = -d^2/dt^2 + V_i(t),    V_i = lambda_i + q - e c xi(t)^{e-1},

with V_i periodic with the orbit period T.  The first-order system
Z' = [[0, 1], [V_i, 0]] Z has a monodromy matrix M with det M = 1 whose trace
classifies the kernel:

    |tr M| > 2  -> hyperbolic (exponents +/- sigma, periodic factors),
    |tr M| < 2  -> elliptic   (rotation number),
    tr M  = +/-2 -> degenerate (periodic kernel, possibly with a t-term).

A complex off-circle pair would require a fifth type, but a real 2x2 matrix
with unit determinant has complex eigenvalues only on the unit circle, so
that type is recorded as unreachable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import spheres
from .fowler import FowlerOrbit, IntegrationError
from .periodic import PeriodicFunction

TYPE_I, TYPE_II, TYPE_III, TYPE_IV = "I", "II", "III", "IV"
TYPE_V_UNREACHABLE = "V (unreachable for real unit-determinant monodromy)"

TRACE_TOL = 1e-7  # |tr M| - 2 boundary tolerance
_MONODROMY_RTOL = 1e-12
_MONODROMY_ATOL = 1e-14


class FloquetStructureError(RuntimeError):
    """Raised when a computed kernel type contradicts the hyperbolic structure
    expected for modes i >= 1 (signals an integration failure)."""


@dataclass(frozen=True)
class ModeOperator:
    """The operator -d^2/dt^2 + lambda + q - e c xi^{e-1} along an orbit."""

    orbit: FowlerOrbit
    lam: float

    def potential(self, t):
        p = self.orbit.params
        return self.lam + p.q - p.e * p.c * self.orbit.value(t) ** (p.e - 1.0)


@dataclass
class FloquetDatum:
    """Classification of one mode: monodromy, type, exponent, factors."""

    index: int
    degree: int
    lam: float
    period: float
    monodromy: np.ndarray
    type: str
    sigma: float | None = None       # Type III exponent
    omega: float | None = None       # Type IV rotation number
    q_plus: PeriodicFunction | None = None
    q_minus: PeriodicFunction | None = None
    periodicity_defect: float = 0.0
    warning: str | None = None
    coupling: float | None = None    # Type II t-term coefficient estimate
    det_defect: float = 0.0          # |Liouville determinant - 1|

    def to_dict(self) -> dict:
        d = {
            "index": self.index,
            "degree": self.degree,
            "lambda": self.lam,
            "period": self.period,
            "monodromy": [list(map(float, row)) for row in self.monodromy],
            "type": self.type,
            "sigma": self.sigma,
            "omega": self.omega,
            "periodicity_defect": self.periodicity_defect,
            "det_defect": self.det_defect,
            "coupling": self.coupling,
            "warning": self.warning,
        }
        if self.q_plus is not None:
            ts = np.linspace(0.0, self.period, 257)[:-1]
            d["q_plus"] = self.q_plus(ts).tolist()
            d["q_minus"] = self.q_minus(ts).tolist()
        return d


def variational_rhs(t, y, lams, params):
    """Z' = [[0, 1], [V, 0]] Z with the orbit carried in the state.

    The state is (Z values, Z derivatives, xi, xi'): Z holds any number of
    columns, and column j sees the potential V_j = lambda_j + q - e c xi^{e-1}
    taken from the state's own xi, which follows xi'' = q xi - c xi^e.
    `lams` holds one eigenvalue per column, or one eigenvalue for all of them.
    Callers start (xi, xi') on the orbit at the initial time.
    """
    k = (len(y) - 2) // 2
    xi, xi_prime = y[-2:].tolist()  # Python floats: cheaper than numpy here
    c_pow = params.c * xi ** (params.e - 1.0)
    v = lams + params.q - params.e * c_pow
    return np.concatenate((y[k:2 * k], v * y[:k],
                           (xi_prime, (params.q - c_pow) * xi)))


def _batch(ops):
    """A tuple of mode operators on one orbit, and whether one came alone."""
    single = isinstance(ops, ModeOperator)
    ops = (ops,) if single else tuple(ops)
    if not ops:
        raise ValueError("no mode operators given")
    if any(op.orbit is not ops[0].orbit for op in ops):
        raise ValueError("batched mode operators must share one orbit")
    return ops, single


def _constant_monodromy(op: ModeOperator) -> np.ndarray:
    """Closed-form matrix exponential of the autonomous system."""
    T = op.orbit.period
    v = float(op.potential(0.0))
    if v > 0:
        r = math.sqrt(v)
        ch, sh = math.cosh(r * T), math.sinh(r * T)
        return np.array([[ch, sh / r], [r * sh, ch]])
    if v < 0:
        w = math.sqrt(-v)
        cw, sw = math.cos(w * T), math.sin(w * T)
        return np.array([[cw, sw / w], [-w * sw, cw]])
    return np.array([[1.0, T], [0.0, 1.0]])


def monodromy(ops, with_det: bool = False):
    """Fundamental solutions over one period with identity initial data.

    `ops` is one ModeOperator, answered with one matrix (and determinant), or
    a sequence of operators on one orbit, answered with a stack of matrices
    (and an array of determinants) in the same order.  For constant orbits
    the system is autonomous and the matrix exponential is written in closed
    form.  Otherwise every operator is integrated in one solve, the state
    holding the fundamental matrix of each: the period is split into
    subintervals short enough that each partial propagator of the largest
    eigenvalue has moderate entries, and each monodromy is the product of its
    partial propagators; the Liouville determinant check multiplies each
    operator's subinterval determinants, which stays well conditioned even
    when the assembled matrix has exponentially large entries.  The orbit
    rides along in the state from its minimum (eps, 0), chained across
    subintervals.
    """
    ops, single = _batch(ops)
    orbit = ops[0].orbit
    k = len(ops)
    dets = np.ones(k)
    if orbit.is_constant:
        ms = np.array([_constant_monodromy(op) for op in ops])
    else:
        T = orbit.period
        lams = [op.lam for op in ops]
        rate = math.sqrt(max(1.0, max(lams) + orbit.params.q))
        pieces = max(1, min(64, math.ceil(rate * T / 3.0)))
        breaks = np.linspace(0.0, T, pieces + 1)
        # columns (u1, u2) per operator: values first, then derivatives
        z0 = [1.0, 0.0] * k + [0.0, 1.0] * k
        col_lams = np.repeat(lams, 2)
        ms = np.tile(np.eye(2), (k, 1, 1))
        xi_state = [orbit.epsilon, 0.0]
        for a, b in zip(breaks[:-1], breaks[1:]):
            sol = solve_ivp(variational_rhs, (a, b), [*z0, *xi_state],
                            args=(col_lams, orbit.params), method="DOP853",
                            rtol=_MONODROMY_RTOL, atol=_MONODROMY_ATOL)
            if not sol.success:
                raise IntegrationError(
                    f"monodromy integration failed at t = {sol.t[-1]:.6g} "
                    f"(lambda = {', '.join(map(repr, lams))})")
            yb = sol.y[:, -1]
            mk = yb[:4 * k].reshape(2, k, 2).transpose(1, 0, 2)
            ms = mk @ ms
            dets = dets * np.linalg.det(mk)
            xi_state = yb[4 * k:]
    if single:
        return (ms[0], float(dets[0])) if with_det else ms[0]
    return (ms, dets) if with_det else ms


@dataclass(frozen=True)
class Classification:
    type: str
    sigma: float | None
    omega: float | None
    warning: str | None


def classify(m: np.ndarray, period: float, tol: float = TRACE_TOL,
             det: float | None = None) -> Classification:
    """Kernel type from the monodromy trace; see module docstring.

    `det` may carry a well-conditioned determinant estimate (from subinterval
    products); otherwise the determinant is formed from the entries, with the
    tolerance widened by the roundoff floor eps * ||M||^2 that a large-entry
    matrix imposes.
    """
    if det is None:
        det = float(np.linalg.det(m))
        floor = 1e-13 * float(np.sum(m * m))
    else:
        floor = 0.0
    if abs(det - 1.0) > 100.0 * tol + floor:
        raise ValueError(f"monodromy determinant {det!r} too far from 1")
    tr = float(np.trace(m))
    if abs(tr) > 2.0 + tol:
        # hyperbolic; the larger eigenvalue magnitude sets the exponent
        mu_big = (abs(tr) + math.sqrt(tr * tr - 4.0)) / 2.0
        sigma = math.log(mu_big) / period
        warn = None if tr > 0 else "negative trace: factors are antiperiodic"
        return Classification(TYPE_III, sigma, None, warn)
    if abs(tr) < 2.0 - tol:
        omega = math.acos(max(-1.0, min(1.0, tr / 2.0))) / period
        return Classification(TYPE_IV, None, omega, None)
    # |tr| within tol of 2: unit eigenvalue; geometric multiplicity via rank
    sign = 1.0 if tr > 0 else -1.0
    defect = m - sign * np.eye(2)
    svals = np.linalg.svd(defect, compute_uv=False)
    warn = f"|tr M| within {tol:g} of 2: degenerate boundary case"
    if svals[0] < tol:
        return Classification(TYPE_I, None, None, warn)
    return Classification(TYPE_II, None, None, warn)


def _eigvec(m, mu):
    """Eigenvector of a 2x2 matrix for eigenvalue mu (better-conditioned row)."""
    c1 = np.array([m[0, 1], mu - m[0, 0]])
    c2 = np.array([mu - m[1, 1], m[1, 0]])
    v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise FloquetStructureError("defective eigenvector in Type III mode")
    v = v / nv
    # normalize the function value at t = 0 to 1 when possible
    if abs(v[0]) > 1e-10:
        v = v / v[0]
    return v


def kernel_basis(ops, data):
    """Periodic factors (q_plus, q_minus, periodicity defect) of Type III
    kernels.

    `ops` and `data` are one ModeOperator and its FloquetDatum, answered with
    one triple, or matching sequences on one orbit, answered with a list of
    triples; the growing branches of a sequence share one solve.
    q_plus multiplies the decaying branch e^{-sigma t} and q_minus the growing
    branch e^{+sigma t}.  Only the growing branch is integrated, forward from
    the orbit minimum where it grows, so it is not contaminated by the other.
    The potential is even about t = 0 and t = T/2, so u(T - t) solves the mode
    equation whenever u(t) does, and the mirror image of the growing branch is
    the decaying one: q_plus(t) = q_minus(T - t), read off the symmetric orbit
    grid with no interpolation.  Factors are normalized to 1 at t = 0 when the
    value there is nonzero; the periodicity defect of the one integrated branch
    is also that of its mirror.
    """
    ops, single = _batch(ops)
    data = (data,) if single else tuple(data)
    if any(d.type != TYPE_III for d in data):
        raise ValueError("kernel_basis requires a Type III mode")
    orbit = ops[0].orbit
    T = orbit.period
    starts = []
    for op, d in zip(ops, data):
        m = d.monodromy
        tr = float(np.trace(m))
        mu_big = (abs(tr) + math.sqrt(tr * tr - 4.0)) / 2.0 * (1.0 if tr > 0 else -1.0)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            w_big = _eigvec(m, mu_big)
        if not np.all(np.isfinite([*m.ravel(), *w_big])):
            raise IntegrationError(
                f"non-finite monodromy or eigenvector (n = {orbit.params.n}, "
                f"eps = {orbit.epsilon!r}, lambda = {op.lam!r}): the growth "
                "over one period overflows")
        starts.append(w_big)
    t_eval = orbit.t

    if orbit.is_constant:
        qp = PeriodicFunction.from_closed_grid(np.ones_like(t_eval), T)
        out = [(qp, qp, 0.0)] * len(ops)
        return out[0] if single else out

    # growing branches, integrated forward; the orbit starts at its minimum
    k = len(ops)
    w = np.array(starts)
    lams = [op.lam for op in ops]
    sol = solve_ivp(variational_rhs, (0.0, T),
                    [*w[:, 0], *w[:, 1], orbit.epsilon, 0.0],
                    args=(np.array(lams), orbit.params),
                    method="DOP853", rtol=_MONODROMY_RTOL,
                    atol=_MONODROMY_ATOL, dense_output=True)
    if not sol.success:
        raise IntegrationError(
            f"kernel branch integration failed (n = {orbit.params.n}, eps = "
            f"{orbit.epsilon!r}, lambda = {', '.join(map(repr, lams))})")
    vals = sol.sol(t_eval)
    out = []
    for j, d in enumerate(data):
        h, hp = vals[j], vals[k + j]
        sigma = d.sigma
        q_minus_vals = np.exp(-sigma * t_eval) * h
        qm_prime = np.exp(-sigma * t_eval) * (hp - sigma * h)
        scale = max(np.max(np.abs(q_minus_vals)), 1e-300)
        defect = max(abs(q_minus_vals[-1] - q_minus_vals[0]),
                     abs(qm_prime[-1] - qm_prime[0])) / scale
        q_plus = PeriodicFunction.from_closed_grid(q_minus_vals[::-1], T)
        q_minus = PeriodicFunction.from_closed_grid(q_minus_vals, T)
        out.append((q_plus, q_minus, float(defect)))
    return out[0] if single else out


def _classified(orbit: FowlerOrbit, lam: float, m: np.ndarray,
                det: float) -> FloquetDatum:
    """Datum of one eigenvalue from its monodromy, without kernel factors."""
    if orbit.is_constant:
        # constant coefficients: classify from the potential sign directly
        # (a constant orbit has no intrinsic period, and the stored
        # linearization period makes the mode-0 trace exactly degenerate)
        v = float(ModeOperator(orbit, lam).potential(0.0))
        if v > 0:
            cls = Classification(TYPE_III, math.sqrt(v), None, None)
        elif v < 0:
            cls = Classification(TYPE_IV, None, math.sqrt(-v), None)
        else:
            cls = Classification(TYPE_II, None, None, None)
    else:
        try:
            cls = classify(m, orbit.period, det=det)
        except ValueError as exc:
            raise IntegrationError(
                f"{exc} (n = {orbit.params.n}, eps = {orbit.epsilon!r}, "
                f"lambda = {lam!r})") from exc
    datum = FloquetDatum(index=0, degree=0, lam=lam, period=orbit.period,
                         monodromy=m, type=cls.type, sigma=cls.sigma,
                         omega=cls.omega, warning=cls.warning,
                         det_defect=abs(det - 1.0))
    if cls.type == TYPE_II and not orbit.is_constant and lam == 0.0:
        datum.coupling = mode0_coupling(orbit, m)
    return datum


def spectrum(orbit: FowlerOrbit, lams, with_factors: bool = False) -> dict:
    """The orbit's kept datum per distinct eigenvalue of `lams`, ascending.

    Eigenvalues without a datum are classified from one batched monodromy
    solve; with `with_factors`, every Type III datum still without kernel
    factors gets them from one batched kernel solve.  The orbit keeps data
    only once every eigenvalue of the batch has been classified.
    """
    store = orbit._floquet
    lams = sorted({float(lam) for lam in lams})
    new = [lam for lam in lams if lam not in store]
    if new:
        ms, dets = monodromy([ModeOperator(orbit, lam) for lam in new],
                             with_det=True)
        data = [_classified(orbit, lam, m, float(det))
                for lam, m, det in zip(new, ms, dets)]
        store.update((d.lam, d) for d in data)
    out = {lam: store[lam] for lam in lams}
    bare = [d for d in out.values() if with_factors and d.type == TYPE_III
            and d.q_plus is None]
    if bare:
        ops = [ModeOperator(orbit, d.lam) for d in bare]
        for d, (qp, qm, defect) in zip(bare, kernel_basis(ops, bare)):
            d.q_plus, d.q_minus, d.periodicity_defect = qp, qm, defect
    return out


def mode_datum(orbit: FowlerOrbit, index: int, lam: float, degree: int,
               with_factors: bool = True) -> FloquetDatum:
    """Full Floquet datum for one mode (a labelled copy of the orbit's datum).

    A datum computed earlier with kernel factors keeps them, so the result
    may carry factors even when `with_factors` is false.
    """
    lam = float(lam)
    datum = orbit._floquet.get(lam)
    if datum is None or (with_factors and datum.type == TYPE_III
                         and datum.q_plus is None):
        datum = spectrum(orbit, [lam], with_factors)[lam]
    return FloquetDatum(**{**datum.__dict__, "index": index, "degree": degree})


def mode0_coupling(orbit: FowlerOrbit, m: np.ndarray) -> float:
    """Measured t-term coefficient of the mode-0 kernel.

    In the basis (xi', companion) the monodromy is unipotent; the off-diagonal
    coupling equals -dT/deps up to the companion normalization.  The returned
    number is the coefficient c in the basis element "second + c t first",
    normalized by the period.
    """
    # basis: b1 = (xi'(0), xi''(0)) = (0, xi''(0)); b2 = (1, 0)
    b1 = np.array([0.0, float(orbit.second_derivative(0.0))])
    b2 = np.array([1.0, 0.0])
    B = np.column_stack([b1, b2])
    mb = np.linalg.solve(B, m @ B)
    # mb should be [[1, kappa], [0, 1]]; c = kappa / T
    return float(mb[0, 1]) / orbit.period


def exponent_sequence(orbit: FowlerOrbit, count: int,
                      with_factors: bool = False) -> list[FloquetDatum]:
    """Floquet data for modes i = 1..count, eigenvalues in increasing order
    with multiplicity.  A Type IV classification for i >= 1 contradicts the
    hyperbolic kernel structure and raises FloquetStructureError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lams, degs = spheres.eigenvalue_sequence(orbit.params.n, count + 1)
    spectrum(orbit, lams[1:count + 1], with_factors)  # one batch per orbit
    out = []
    for i in range(1, count + 1):
        d = mode_datum(orbit, i, float(lams[i]), int(degs[i]),
                       with_factors=with_factors)
        if d.type == TYPE_IV:
            raise FloquetStructureError(
                f"mode {i} (lambda = {lams[i]}) classified Type IV; modes "
                "i >= 1 must be hyperbolic -- integration failure suspected")
        out.append(d)
    sigmas = [d.sigma for d in out if d.sigma is not None]
    if any(s2 < s1 - 1e-9 for s1, s2 in zip(sigmas, sigmas[1:])):
        raise FloquetStructureError("exponent sequence not nondecreasing")
    return out


@dataclass
class BoundReport:
    ok: bool
    margins: list
    messages: list


def lower_bound_check(data: list[FloquetDatum], orbit: FowlerOrbit,
                      tol: float = 1e-9) -> BoundReport:
    """Audit of the exponent lower bound for the conformal problem.

    Constant orbit: sigma_i^2 = lambda_i - n + 2 (to tol).
    Nonconstant orbit: sigma_i^2 > lambda_i - (3n - 2)/2 with positive margin.
    """
    p = orbit.params
    if p.kind != "conformal":
        raise ValueError("lower_bound_check applies to conformal provenance")
    n = p.n
    margins, messages, ok = [], [], True
    for d in data:
        if d.sigma is None:
            ok = False
            messages.append(f"mode {d.index}: no hyperbolic exponent")
            margins.append(float("nan"))
            continue
        if orbit.is_constant:
            err = d.sigma**2 - (d.lam - n + 2)
            margins.append(err)
            if abs(err) > tol:
                ok = False
                messages.append(
                    f"mode {d.index}: sigma^2 deviates from lambda - n + 2 "
                    f"by {err:.3e}")
        else:
            margin = d.sigma**2 - (d.lam - (3 * n - 2) / 2.0)
            margins.append(margin)
            if margin <= 0:
                ok = False
                messages.append(f"mode {d.index}: lower bound violated, "
                                f"margin {margin:.3e}")
    return BoundReport(ok=ok, margins=margins, messages=messages)
