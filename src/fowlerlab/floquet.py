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
that type never occurs.

On a nonconstant orbit M is a product of sixth-order Magnus steps (Iserles
& Norsett 1999; Blanes, Casas, Oteo & Ros 2009), and mode 0 is Type II by
structure.  Solutions of the mode systems come from one multiple-shooting
set-up (Keller 1968): the period is cut into KERNEL_PIECES equal pieces, each
seeded from the Magnus steps' prefix products, and one DOP853 solve runs every
piece over one piece length.  It gives the Type III kernels' growing branches
and the mode-0 fundamental pair of the cylinder's inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp

from . import spheres
from .fowler import (BareDOP853, DenseSolution, FowlerOrbit, IntegrationError,
                     output_fields)
from .periodic import PeriodicFunction

TYPE_I, TYPE_II, TYPE_III, TYPE_IV = "I", "II", "III", "IV"

TRACE_TOL = 1e-7  # |tr M| - 2 boundary tolerance
CLOSED_FORM_TOL = 1e-9  # constant-orbit sigma^2 against lambda - n + 2
MAGNUS_TOL = 6.3e-12  # accepted two-level difference of the monodromy
MAGNUS_START, MAGNUS_CAP = 256, 2 ** 15  # step counts: first and last level
KERNEL_PIECES = 16  # pieces of every shooting solve
SHOOTING_OPTIONS = {"method": BareDOP853, "rtol": 1e-12, "atol": 1e-14,
                    "dense_output": True}
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
    q_plus: PeriodicFunction | None = field(default=None, compare=False)
    q_minus: PeriodicFunction | None = field(default=None, compare=False)
    periodicity_defect: float = 0.0  # largest junction mismatch of q_minus
    warning: str | None = None
    coupling: float | None = None    # Type II t-term coefficient estimate
    det_defect: float = 0.0          # |product of step determinants - 1|
    magnus_steps: int = 0            # N of the kept level (0: closed form)
    magnus_error: float = 0.0        # its two-level difference estimate
    trace_defect: float | None = None  # |tr M - 2| of the mode-0 monodromy
    # right-hand-side evaluations and accepted steps of the kernel-branch
    # solve that made q_plus and q_minus, shared by its whole batch
    kernel_rhs_evals: int = field(default=0, compare=False)
    kernel_steps: int = field(default=0, compare=False)
    # read-only `_magnus_product` nodes of magnus_steps (on a constant
    # orbit the closed form over T / KERNEL_PIECES): the shooting seeds
    nodes: np.ndarray | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        d = output_fields(self)
        d["lambda"] = d.pop("lam")
        if self.q_plus is not None:
            ts = np.linspace(0.0, self.period, 257)[:-1]
            d["q_plus"] = self.q_plus(ts).tolist()
            d["q_minus"] = self.q_minus(ts).tolist()
        return d


def variational_system(lams, params, pieces: int = 1):
    """rhs(t, y) of Z' = [[0, 1], [V, 0]] Z with the orbit carried in the
    state, for `pieces` independent copies integrated side by side: the
    state is (Z values, Z derivatives, xi values, xi' values), Z one column
    per eigenvalue of `lams` in each piece, piece by piece.  Column j of a
    piece sees V_j = lambda_j + q - e c xi^{e-1} from that piece's own xi,
    which follows xi'' = q xi - c xi^e; callers start each (xi, xi') on the
    orbit.  lambda_j + q and the constants are bound once per solve; the
    arithmetic is whole-array, but the powers xi^{e-1} are taken on Python
    floats.
    """
    q, c, e, e_minus_1 = params.q, params.c, params.e, params.e - 1.0
    lam_q = np.array([float(lam) + q for lam in lams])
    cols = pieces * lam_q.size

    def rhs(t, y):
        z, xi, xi_prime = y[:cols], y[2 * cols:-pieces], y[-pieces:]
        c_pow = c * np.array([x ** e_minus_1 for x in xi.tolist()])
        v = lam_q - (e * c_pow)[:, None]
        return np.concatenate((y[cols:2 * cols],
                               (v * z.reshape(pieces, -1)).ravel(),
                               xi_prime, (q - c_pow) * xi))
    return rhs


def _closed_form(kind: str, r: float | None, span: float):
    """exp(span [[0, 1], [v, 0]]) for a constant potential v = r^2
    (TYPE_III), -r^2 (TYPE_IV) or 0 (TYPE_II), as nested lists; entries
    past the float range are infinite."""
    if kind == TYPE_III:
        try:
            ch, sh = math.cosh(r * span), math.sinh(r * span)
        except OverflowError:
            ch = sh = math.inf
        return [[ch, sh / r], [r * sh, ch]]
    if kind == TYPE_IV:
        cw, sw = math.cos(r * span), math.sin(r * span)
        return [[cw, sw / r], [-r * sw, cw]]
    return [[1.0, span], [0.0, 1.0]]


def _constant_monodromy(orbit: FowlerOrbit, lam: float):
    """Closed-form matrix exponential of the autonomous system, and its
    classification from the sign of the constant potential v (a constant
    orbit has no intrinsic period, and the stored linearization period
    makes the mode-0 trace exactly degenerate).  A matrix that overflows,
    cosh(sqrt(v) T) past sqrt(v) T = 710.5, raises IntegrationError."""
    T = orbit.period
    v = float(ModeOperator(orbit, lam).potential(0.0))
    r = math.sqrt(abs(v))
    cls = ((TYPE_III, r, None) if v > 0 else (TYPE_IV, None, r) if v < 0
           else (TYPE_II, None, None))
    m = np.array(_closed_form(cls[0], r, T))
    if not np.isfinite(m).all():
        raise IntegrationError(f"constant-orbit monodromy overflows "
                               f"({orbit.named(('lambda', float(lam)), ('T', T))})")
    return m, Classification(*cls, None)


def _commutator(x, y):
    """[X, Y] of traceless 2x2 matrices given as (a, b, c) = [[a, b], [c, -a]]."""
    (a1, b1, c1), (a2, b2, c2) = x, y
    return (b1 * c2 - b2 * c1, 2.0 * (a1 * b2 - b1 * a2),
            2.0 * (c1 * a2 - a1 * c2))


def _magnus_product(orbit: FowlerOrbit, lams, n: int):
    """Monodromies, step determinant products and tree nodes of n uniform
    6th-order Magnus steps for each eigenvalue of `lams`.  A step is
    exp(Omega), Omega the three-Gauss-point exponent of Blanes, Casas & Ros;
    Omega^2 = s^2 I gives exp(Omega) = cosh(s) I + (sinh(s)/s) Omega.  V is
    even about T/2, so it is sampled on the first half period.  Arithmetic is
    elementwise.  The steps are multiplied pairwise; the nodes, shape
    (len(lams), KERNEL_PIECES, 2, 2), are the tree's level of KERNEL_PIECES
    matrices, kept on the way to the root (n a power-of-two multiple of it):
    node i propagates over [iT/KERNEL_PIECES, (i + 1)T/KERNEL_PIECES].
    """
    p, h = orbit.params, orbit.period / n
    gauss = (np.arange(n // 2)[:, None] + _GAUSS_NODES) * h
    w = p.e * p.c * orbit.value(gauss.ravel()).reshape(gauss.shape) ** (p.e - 1.0)
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
    while e[0].shape[1] > 1:  # later steps multiply from the left
        if e[0].shape[1] == KERNEL_PIECES:
            nodes = np.stack(e, axis=-1).reshape(len(lq), -1, 2, 2)
        (a11, a12, a21, a22), (b11, b12, b21, b22) = (
            [x[:, 1::2] for x in e], [x[:, ::2] for x in e])
        e = (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
             a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
    return np.stack(e, axis=-1).reshape(len(lq), 2, 2), det, nodes


def monodromy(orbit: FowlerOrbit, lams):
    """Fundamental solutions over one period with identity initial data.

    `lams` is a nonempty sequence of eigenvalues of modes on `orbit`; the
    answer is (matrices, determinant products, step counts N, estimates,
    `_magnus_product` nodes), each in the order of `lams`.  Constant orbits
    get the closed-form exponential (N = 0), and as every node the closed
    form over T / KERNEL_PIECES.
    Otherwise N doubles from MAGNUS_START for every eigenvalue alike, and
    each keeps the first level where ||M_2N - M_N|| / max(1, ||M_2N||) is at
    most MAGNUS_TOL, or shrank less than 4x after an earlier doubling shrank
    it 16x: the accuracy floor of the stored orbit.  A level at that floor
    whose estimate grew gives way to the level before it.  An eigenvalue
    unresolved at MAGNUS_CAP steps, or overflowing, raises IntegrationError.
    """
    lams = np.array(lams, dtype=float)
    k = len(lams)
    if not k:
        raise ValueError("no eigenvalues given")
    ms, dets = np.empty((k, 2, 2)), np.ones(k)
    steps, errors = np.zeros(k, dtype=int), np.zeros(k)
    if orbit.is_constant:
        h = orbit.period / KERNEL_PIECES
        nodes = np.empty((k, KERNEL_PIECES, 2, 2))
        for i, lam in enumerate(lams):
            ms[i], cls = _constant_monodromy(orbit, lam)
            r = cls.sigma or cls.omega  # sqrt|v|, None where v = 0
            nodes[i] = _closed_form(cls.type, r, h)
        return ms, dets, steps, errors, nodes
    nodes, last_nodes = np.empty((2, k, KERNEL_PIECES, 2, 2))
    live, fell = np.ones(k, dtype=bool), np.zeros(k, dtype=bool)
    last, last_det = np.full((k, 2, 2), np.nan), np.full(k, np.nan)
    d1, n = np.full(k, np.nan), MAGNUS_START
    while live.any():
        m, det = np.full((k, 2, 2), np.nan), np.full(k, np.nan)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            m[live], det[live], nodes[live] = _magnus_product(orbit, lams[live], n)
            d = (np.max(np.abs(m - last), axis=(1, 2))
                 / np.maximum(1.0, np.max(np.abs(m), axis=(1, 2))))
        done = live & ((d <= MAGNUS_TOL) | (fell & (4.0 * d > d1)))
        back = done & (d > d1)  # the floor level's estimate grew: keep the one before
        m[back], det[back], d[back] = last[back], last_det[back], d1[back]
        nodes[back] = last_nodes[back]
        ms[done], dets[done], errors[done] = m[done], det[done], d[done]
        steps[done], steps[back], live = n, n // 2, live & ~done
        finite = np.isfinite(m).all(axis=(1, 2))
        bad = live & ~(finite & (n < MAGNUS_CAP))
        if bad.any():
            i = int(np.argmax(bad))
            named = orbit.named(("lambda", float(lams[i])),
                                ("estimate", float(d[i])))
            word = "unresolved" if finite[i] else "overflows"
            raise IntegrationError(f"monodromy {word} at N = {n} steps ({named})")
        fell |= 16.0 * d <= d1
        last, last_det, last_nodes, d1, n = m, det, nodes.copy(), d, 2 * n
    return ms, dets, steps, errors, nodes


@dataclass(frozen=True)
class Classification:
    type: str
    sigma: float | None
    omega: float | None
    warning: str | None


def _multiplier(tr: float) -> float:
    """The larger-magnitude eigenvalue of a unimodular 2x2 matrix of trace
    tr, |tr| > 2.  Where tr * tr overflows, sqrt(tr^2 - 4) rounds to |tr|
    and the eigenvalue to tr itself."""
    if not math.isfinite(tr * tr):
        return tr
    return math.copysign((abs(tr) + math.sqrt(tr * tr - 4.0)) / 2.0, tr)


def classify(m: np.ndarray, period: float, det: float) -> Classification:
    """Kernel type from the monodromy trace; see module docstring.

    `det` is a well-conditioned determinant estimate, such as the product of
    the step determinants: formed from the entries of a large-entry matrix,
    it would carry a roundoff of order eps * ||M||^2.
    """
    if abs(det - 1.0) > 100.0 * TRACE_TOL:
        raise ValueError(f"monodromy determinant {det!r} too far from 1")
    tr = float(np.trace(m))
    if abs(tr) > 2.0 + TRACE_TOL:
        # hyperbolic; the larger eigenvalue magnitude sets the exponent
        sigma = math.log(abs(_multiplier(tr))) / period
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


def shooting_problem(orbit: FowlerOrbit, data, starts):
    """(rhs, span, y0, seeds) of the shooting solve of one column per datum,
    column j from (u, u')(0) = starts[j]; run `solve_ivp(rhs, span, y0,
    **SHOOTING_OPTIONS)`, read it by `shooting_read`.  Piece i starts at
    t_i = i T / KERNEL_PIECES from seeds[i, j] = Phi(t_i) starts[j], the
    prefix product of datum j's nodes, with its own orbit copy from
    (xi, xi')(t_i); span = (0, T / KERNEL_PIECES)."""
    pieces = KERNEL_PIECES
    lams = [d.lam for d in data]
    nodes = np.array([d.nodes for d in data])
    seeds = [np.asarray(starts, dtype=float)]  # (columns, 2) per piece
    for i in range(pieces - 1):
        seeds.append(np.einsum("jab,jb->ja", nodes[:, i], seeds[-1]))
    seeds = np.array(seeds)
    h = orbit.period / pieces
    breaks = h * np.arange(pieces)
    y0 = [*seeds[..., 0].ravel(), *seeds[..., 1].ravel(),
          *orbit.value(breaks), *orbit.derivative(breaks)]
    return variational_system(lams, orbit.params, pieces), (0.0, h), y0, seeds


def shooting_read(sol, seeds, t, closing, sigma):
    """A `shooting_problem` solve's column values at t in [0, T], shape
    (columns, points), each point read from its own piece's rows of the dense
    output only; its (u, u') at T, shape (2, columns); and its largest
    junction mismatch per column in q = e^{-sigma t} u and q': each piece's
    end against the next piece's seed, the last piece's end against
    `closing`, (columns, 2), the state at T that the monodromy predicts."""
    pieces, cols = seeds.shape[:2]
    h = sol.t[-1]
    piece = np.minimum((t // h).astype(int), pieces - 1)
    values = DenseSolution(sol.sol)(t - piece * h,
                                    piece * cols + np.arange(cols)[:, None])
    end = sol.y[:2 * pieces * cols, -1].reshape(2, pieces, cols)
    target = np.concatenate((seeds[1:], closing[None]))
    du, du_prime = end[0] - target[..., 0], end[1] - target[..., 1]
    decay = np.exp(-sigma * h * np.arange(1, pieces + 1)[:, None])
    mismatch = decay * np.maximum(np.abs(du), np.abs(du_prime - sigma * du))
    return values, end[:, -1], np.max(mismatch, axis=0)


def kernel_basis(orbit: FowlerOrbit, data):
    """Periodic factors of Type III kernels: (q_plus, q_minus, periodicity
    defect, rhs evaluations, steps) per datum.

    `data` is a nonempty sequence of FloquetData of modes on `orbit`, nodes
    included, answered in the same order; the growing branches share one
    solve, and every answer carries its right-hand-side evaluations and
    accepted steps (0 on a constant orbit).
    q_plus multiplies the decaying branch e^{-sigma t} and q_minus the growing
    branch e^{+sigma t}.  Only the growing branch u = Phi(t) w is integrated,
    w the monodromy's eigenvector of the multiplier mu, |mu| = e^{sigma T},
    as one column of `shooting_problem`; q_minus = e^{-sigma t} u is read on
    the orbit grid.  The potential is even about t = 0 and t = T/2, so
    u(T - t) solves the mode equation whenever u(t) does, and the mirror
    image of the growing branch is the decaying one: q_plus(t) =
    q_minus(T - t), read off the symmetric orbit grid with no interpolation.
    Factors are normalized to 1 at t = 0 when the value there is nonzero.
    The periodicity defect is the largest junction mismatch, the last
    against mu w, relative to max |q_minus|; it is also that of the mirror.
    """
    data = tuple(data)
    if not data:
        raise ValueError("no Floquet data given")
    if any(d.type != TYPE_III for d in data):
        raise ValueError("kernel_basis requires a Type III mode")
    T = orbit.period
    starts, mus = [], []
    for d in data:
        if d.nodes is None:
            raise ValueError(f"Floquet datum without nodes (lambda = {d.lam!r})")
        m = d.monodromy
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            mu = _multiplier(float(np.trace(m)))
            w_big = _eigvec(m, mu)
        # an overflowing norm in _eigvec leaves a vanished eigenvector
        if not (np.all(np.isfinite([*m.ravel(), *w_big])) and np.any(w_big)):
            raise IntegrationError(
                f"non-finite monodromy or lost eigenvector: the growth over one "
                f"period overflows ({orbit.named(('lambda', d.lam))})")
        starts.append(w_big)
        mus.append(mu)
    t_eval = orbit.t

    if orbit.is_constant:
        qp = PeriodicFunction.from_closed_grid(np.ones_like(t_eval), T)
        return [(qp, qp, 0.0, 0, 0)] * len(data)

    rhs, span, y0, seeds = shooting_problem(orbit, data, starts)
    sol = solve_ivp(rhs, span, y0, **SHOOTING_OPTIONS)
    if not sol.success:
        raise IntegrationError(f"kernel branch integration failed ("
                               f"{orbit.named(('lambda', [d.lam for d in data]))})")
    sigma = np.array([d.sigma for d in data])
    u, _, mismatch = shooting_read(sol, seeds, t_eval,
                                   np.array(mus)[:, None] * seeds[0], sigma)
    q_minus = np.exp(-sigma[:, None] * t_eval) * u
    scale = np.maximum(np.max(np.abs(q_minus), axis=1), 1e-300)
    return [(PeriodicFunction.from_closed_grid(qm[::-1], T),
             PeriodicFunction.from_closed_grid(qm, T), float(defect),
             int(sol.nfev), len(sol.t) - 1)
            for qm, defect in zip(q_minus, mismatch / scale)]


def _classified(orbit: FowlerOrbit, lam: float, m: np.ndarray, det: float,
                steps: int, error: float, nodes: np.ndarray) -> FloquetDatum:
    """Datum of one eigenvalue from its monodromy, without kernel factors.
    On a nonconstant orbit mode 0 is Type II by structure (xi' is a periodic
    kernel element, dT/deps != 0); its trace defect is kept, not tested.
    A monodromy kept at the orbit's accuracy floor, its estimate above
    MAGNUS_TOL, gets a warning naming the orbit, lambda, N and the estimate."""
    if orbit.is_constant:
        cls = _constant_monodromy(orbit, lam)[1]
    else:
        try:
            cls = classify(m, orbit.period, det=det)
        except ValueError as exc:
            raise IntegrationError(
                f"{exc} ({orbit.named(('lambda', lam))})") from exc
        if lam == 0.0:
            cls = Classification(TYPE_II, None, None, None)
    warning = cls.warning
    if error > MAGNUS_TOL:
        named = orbit.named(("lambda", lam), ("N", steps), ("estimate", error))
        floor = f"monodromy kept at the orbit's accuracy floor ({named})"
        warning = floor if warning is None else f"{warning}; {floor}"
    datum = FloquetDatum(index=0, degree=0, lam=lam, period=orbit.period,
                         monodromy=m, type=cls.type, sigma=cls.sigma,
                         omega=cls.omega, warning=warning,
                         det_defect=abs(det - 1.0), magnus_steps=steps,
                         magnus_error=error, nodes=nodes)
    nodes.flags.writeable = False
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
        health = monodromy(orbit, new)
        data = [_classified(orbit, lam, m, float(det), int(n), float(err), nd)
                for lam, m, det, n, err, nd in zip(new, *health)]
        store.update((d.lam, d) for d in data)
    out = {lam: store[lam] for lam in lams}
    bare = [d for d in out.values() if with_factors and d.type == TYPE_III
            and d.q_plus is None]
    if bare:
        for d, (qp, qm, defect, evals, steps) in zip(bare,
                                                     kernel_basis(orbit, bare)):
            d.q_plus, d.q_minus, d.periodicity_defect = qp, qm, defect
            d.kernel_rhs_evals, d.kernel_steps = evals, steps
    return out


def mode_datum(orbit: FowlerOrbit, index: int, lam: float, degree: int,
               with_factors: bool = True) -> FloquetDatum:
    """Full Floquet datum for one mode: `spectrum`'s datum for lam, copied
    with the mode's index and degree.

    A datum computed earlier with kernel factors keeps them, so the result
    may carry factors even when `with_factors` is false.
    """
    datum = spectrum(orbit, [lam], with_factors)[float(lam)]
    return replace(datum, index=index, degree=degree)


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
    with multiplicity, copied from one `spectrum` batch.  A Type IV
    classification for i >= 1 contradicts the hyperbolic kernel structure
    and raises FloquetStructureError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lams, degs = spheres.eigenvalue_sequence(orbit.params.n, count + 1)
    data = spectrum(orbit, lams[1:count + 1], with_factors)
    out = []
    for i in range(1, count + 1):
        d = replace(data[float(lams[i])], index=i, degree=int(degs[i]))
        if d.type == TYPE_IV:
            raise FloquetStructureError(
                f"mode {i} classified Type IV; modes i >= 1 must be hyperbolic "
                f"-- integration failure suspected "
                f"({orbit.named(('lambda', d.lam))})")
        out.append(d)
    sigmas = [d.sigma for d in out if d.sigma is not None]
    if any(s2 < s1 - 1e-9 for s1, s2 in zip(sigmas, sigmas[1:])):
        raise FloquetStructureError(
            f"exponent sequence not nondecreasing ({orbit.named()})")
    return out


@dataclass
class BoundReport:
    ok: bool
    margins: list


def lower_bound_check(data: list[FloquetDatum], orbit: FowlerOrbit) -> BoundReport:
    """Audit of the exponent lower bound for the conformal problem.

    Constant orbit: sigma_i^2 = lambda_i - n + 2 (to CLOSED_FORM_TOL).
    Nonconstant orbit: sigma_i^2 > lambda_i - (3n - 2)/2 with positive margin.
    """
    p = orbit.params
    if p.kind != "conformal":
        raise ValueError("lower_bound_check applies to conformal provenance")
    n = p.n
    margins, ok = [], True
    for d in data:
        if d.sigma is None:
            ok = False
            margins.append(float("nan"))
        elif orbit.is_constant:
            err = d.sigma**2 - (d.lam - n + 2)
            margins.append(err)
            if abs(err) > CLOSED_FORM_TOL:
                ok = False
        else:
            margin = d.sigma**2 - (d.lam - (3 * n - 2) / 2.0)
            margins.append(margin)
            if margin <= 0:
                ok = False
    return BoundReport(ok=ok, margins=margins)
