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

On a nonconstant orbit M is a product of sixth-order Magnus steps (Iserles
& Norsett 1999; Blanes, Casas, Oteo & Ros 2009), and mode 0 is Type II by
structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import spheres
from .fowler import DenseSolution, FowlerOrbit, IntegrationError
from .periodic import PeriodicFunction

TYPE_I, TYPE_II, TYPE_III, TYPE_IV = "I", "II", "III", "IV"
TYPE_V_UNREACHABLE = "V (unreachable for real unit-determinant monodromy)"

TRACE_TOL = 1e-7  # |tr M| - 2 boundary tolerance
CLOSED_FORM_TOL = 1e-9  # constant-orbit sigma^2 against lambda - n + 2
_MONODROMY_RTOL = 1e-12  # the kernel-branch solve
_MONODROMY_ATOL = 1e-14
MAGNUS_TOL = 6.3e-12  # accepted two-level difference of the monodromy
MAGNUS_START, MAGNUS_CAP = 256, 2 ** 15  # step counts: first and last level
_GAUSS_NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])


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
    det_defect: float = 0.0          # |product of step determinants - 1|
    magnus_steps: int = 0            # N of the kept level (0: closed form)
    magnus_error: float = 0.0        # its two-level difference estimate
    trace_defect: float | None = None  # |tr M - 2| of the mode-0 monodromy

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
            "magnus_steps": self.magnus_steps,
            "magnus_error": self.magnus_error,
            "trace_defect": self.trace_defect,
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
    Callers start (xi, xi') on the orbit at the initial time.  The state is
    read as Python floats, which at a few columns is cheaper than numpy
    arithmetic, and the derivative is returned as a list.
    """
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


def _batch(ops) -> tuple:
    """A nonempty sequence of mode operators on one orbit, as a tuple."""
    ops = tuple(ops)
    if not ops:
        raise ValueError("no mode operators given")
    if any(op.orbit is not ops[0].orbit for op in ops):
        raise ValueError("batched mode operators must share one orbit")
    return ops


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


def _commutator(x, y):
    """[X, Y] of traceless 2x2 matrices given as (a, b, c) = [[a, b], [c, -a]]."""
    (a1, b1, c1), (a2, b2, c2) = x, y
    return (b1 * c2 - b2 * c1, 2.0 * (a1 * b2 - b1 * a2),
            2.0 * (c1 * a2 - a1 * c2))


def _magnus_product(orbit: FowlerOrbit, lams, n: int):
    """Monodromies, and products of step determinants, of n uniform 6th-order
    Magnus steps for each eigenvalue of `lams`.  A step is exp(Omega), Omega
    the three-Gauss-point exponent of Blanes, Casas & Ros; Omega^2 = s^2 I
    gives exp(Omega) = cosh(s) I + (sinh(s)/s) Omega.  V is even about T/2,
    so it is sampled on the first half period.  Arithmetic is elementwise.
    """
    p, h = orbit.params, orbit.period / n
    nodes = (np.arange(n // 2)[:, None] + _GAUSS_NODES) * h
    w = p.e * p.c * orbit.value(nodes.ravel()).reshape(nodes.shape) ** (p.e - 1.0)
    w = np.concatenate([w, w[::-1, ::-1]])
    lq = np.asarray(lams, dtype=float)[:, None] + p.q
    v1, v2, v3 = (lq - w[:, i] for i in range(3))
    a1 = (0.0, h, h * v2)
    a2 = (0.0, 0.0, (math.sqrt(15.0) * h / 3.0) * (v3 - v1))
    a3 = (0.0, 0.0, (10.0 * h / 3.0) * (v1 - 2.0 * v2 + v3))
    c1 = _commutator(a1, a2)
    c2 = [-x / 60.0 for x in _commutator(a1, [2.0 * u + v for u, v in zip(a3, c1)])]
    outer = _commutator([-20.0 * u - v + z for u, v, z in zip(a1, a3, c1)],
                        [u + v for u, v in zip(a2, c2)])
    a, b, c = (u + v / 12.0 + z / 240.0 for u, v, z in zip(a1, a3, outer))
    s2 = a * a + b * c
    r = np.sqrt(np.abs(s2))
    tiny = r < 1e-4  # sinh(s)/s by its series there: s may be 0
    ch = np.where(s2 > 0.0, np.cosh(r), np.cos(r))
    sh = np.where(tiny, 1.0 + s2 / 6.0, np.where(s2 > 0.0, np.sinh(r), np.sin(r))
                  / np.where(tiny, 1.0, r))
    e = (ch + sh * a, sh * b, sh * c, ch - sh * a)
    det = np.prod(e[0] * e[3] - e[1] * e[2], axis=1)
    while e[0].shape[1] > 1:  # pairwise: later steps multiply from the left
        (a11, a12, a21, a22), (b11, b12, b21, b22) = (
            [x[:, 1::2] for x in e], [x[:, ::2] for x in e])
        e = (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
             a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
    return np.stack([x[:, 0] for x in e], axis=1).reshape(-1, 2, 2), det


def monodromy(ops):
    """Fundamental solutions over one period with identity initial data.

    `ops` is a sequence of operators on one orbit; the answer is (matrices,
    determinant products, step counts N, estimates), each in the order of
    `ops`.  Constant orbits get the closed-form exponential (N = 0).
    Otherwise N doubles from MAGNUS_START for every eigenvalue alike, and
    each keeps the first level where ||M_2N - M_N|| / max(1, ||M_2N||) is at
    most MAGNUS_TOL, or shrank less than 4x after an earlier doubling shrank
    it 16x: the accuracy floor of the stored orbit.  A level at that floor
    whose estimate grew gives way to the level before it.  An eigenvalue
    unresolved at MAGNUS_CAP steps, or overflowing, raises IntegrationError.
    """
    ops = _batch(ops)
    orbit, k = ops[0].orbit, len(ops)
    lams = np.array([op.lam for op in ops])
    ms, dets = np.empty((k, 2, 2)), np.ones(k)
    steps, errors = np.zeros(k, dtype=int), np.zeros(k)
    if orbit.is_constant:
        ms[:] = [_constant_monodromy(op) for op in ops]
        return ms, dets, steps, errors
    live, fell = np.ones(k, dtype=bool), np.zeros(k, dtype=bool)
    last, last_det = np.full((k, 2, 2), np.nan), np.full(k, np.nan)
    d1, n = np.full(k, np.nan), MAGNUS_START
    while live.any():
        m, det = np.full((k, 2, 2), np.nan), np.full(k, np.nan)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            m[live], det[live] = _magnus_product(orbit, lams[live], n)
            d = (np.max(np.abs(m - last), axis=(1, 2))
                 / np.maximum(1.0, np.max(np.abs(m), axis=(1, 2))))
        done = live & ((d <= MAGNUS_TOL) | (fell & (4.0 * d > d1)))
        back = done & (d > d1)  # the floor level's estimate grew: keep the one before
        m[back], det[back], d[back] = last[back], last_det[back], d1[back]
        ms[done], dets[done], errors[done] = m[done], det[done], d[done]
        steps[done], steps[back], live = n, n // 2, live & ~done
        finite = np.isfinite(m).all(axis=(1, 2))
        bad = live & ~(finite & (n < MAGNUS_CAP))
        if bad.any():
            i = int(np.argmax(bad))
            raise IntegrationError(
                f"monodromy {'unresolved' if finite[i] else 'overflows'} at "
                f"N = {n} steps (n = {orbit.params.n}, eps = {orbit.epsilon!r}, "
                f"lambda = {float(lams[i])!r}, estimate = {d[i]:.3g})")
        fell |= 16.0 * d <= d1
        last, last_det, d1, n = m, det, d, 2 * n
    return ms, dets, steps, errors


@dataclass(frozen=True)
class Classification:
    type: str
    sigma: float | None
    omega: float | None
    warning: str | None


def classify(m: np.ndarray, period: float,
             det: float | None = None) -> Classification:
    """Kernel type from the monodromy trace; see module docstring.

    `det` may carry a well-conditioned determinant estimate (the product of
    the step determinants); otherwise the determinant is formed from the
    entries, with the tolerance widened by the roundoff floor eps * ||M||^2
    that a large-entry matrix imposes.
    """
    if det is None:
        det = float(np.linalg.det(m))
        floor = 1e-13 * float(np.sum(m * m))
    else:
        floor = 0.0
    if abs(det - 1.0) > 100.0 * TRACE_TOL + floor:
        raise ValueError(f"monodromy determinant {det!r} too far from 1")
    tr = float(np.trace(m))
    if abs(tr) > 2.0 + TRACE_TOL:
        # hyperbolic; the larger eigenvalue magnitude sets the exponent
        mu_big = (abs(tr) + math.sqrt(tr * tr - 4.0)) / 2.0
        sigma = math.log(mu_big) / period
        warn = None if tr > 0 else "negative trace: factors are antiperiodic"
        return Classification(TYPE_III, sigma, None, warn)
    if abs(tr) < 2.0 - TRACE_TOL:
        omega = math.acos(max(-1.0, min(1.0, tr / 2.0))) / period
        return Classification(TYPE_IV, None, omega, None)
    # |tr| within TRACE_TOL of 2: unit eigenvalue; geometric multiplicity via rank
    sign = 1.0 if tr > 0 else -1.0
    defect = m - sign * np.eye(2)
    svals = np.linalg.svd(defect, compute_uv=False)
    warn = f"|tr M| within {TRACE_TOL:g} of 2: degenerate boundary case"
    if svals[0] < TRACE_TOL:
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

    `ops` and `data` are matching sequences of operators on one orbit and
    their FloquetData, answered with a list of triples in the same order; the
    growing branches share one solve.
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
    ops, data = _batch(ops), tuple(data)
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
        return [(qp, qp, 0.0)] * len(ops)

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
    vals = DenseSolution(sol.sol)(t_eval)
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
    return out


def _classified(orbit: FowlerOrbit, lam: float, m: np.ndarray, det: float,
                steps: int, error: float) -> FloquetDatum:
    """Datum of one eigenvalue from its monodromy, without kernel factors.
    On a nonconstant orbit mode 0 is Type II by structure (xi' is a periodic
    kernel element, dT/deps != 0); its trace defect is kept, not tested.
    A monodromy kept at the orbit's accuracy floor, its estimate above
    MAGNUS_TOL, gets a warning naming the orbit, lambda, N and the estimate."""
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
        if lam == 0.0:
            cls = Classification(TYPE_II, None, None, None)
    warning = cls.warning
    if error > MAGNUS_TOL:
        floor = (f"monodromy kept at the orbit's accuracy floor (n = "
                 f"{orbit.params.n}, eps = {orbit.epsilon!r}, lambda = {lam!r}, "
                 f"N = {steps}, estimate = {error:.3g})")
        warning = floor if warning is None else f"{warning}; {floor}"
    datum = FloquetDatum(index=0, degree=0, lam=lam, period=orbit.period,
                         monodromy=m, type=cls.type, sigma=cls.sigma,
                         omega=cls.omega, warning=warning,
                         det_defect=abs(det - 1.0), magnus_steps=steps,
                         magnus_error=error)
    if lam == 0.0 and not orbit.is_constant:
        datum.coupling = mode0_coupling(orbit, m)
        datum.trace_defect = abs(float(np.trace(m)) - 2.0)
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
        health = monodromy([ModeOperator(orbit, lam) for lam in new])
        data = [_classified(orbit, lam, m, float(det), int(n), float(err))
                for lam, m, det, n, err in zip(new, *health)]
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


def lower_bound_check(data: list[FloquetDatum], orbit: FowlerOrbit) -> BoundReport:
    """Audit of the exponent lower bound for the conformal problem.

    Constant orbit: sigma_i^2 = lambda_i - n + 2 (to CLOSED_FORM_TOL).
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
            if abs(err) > CLOSED_FORM_TOL:
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
