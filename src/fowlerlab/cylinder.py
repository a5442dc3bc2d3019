"""Mode-truncated solver for the half-cylinder equations.

Fields live on a uniform t-grid times a zonal harmonic basis; theta enters
only through s = <axis, theta>.  The nonlinear operators

    M(f) = -f_tt - Delta_theta f + q f - K f^e        (conformal, e = (n+2)/(n-2))
    N(f) = -f_tt - Delta_theta f + q f - f^{p-1}       (CKN)

are evaluated with 4th-order finite differences in t (biased stencils on the
outermost two rows) and pseudo-spectral handling of the fractional power:
pointwise on a Gauss-Jacobi cosine grid of 8 (D + 1) nodes, D the highest
retained degree, then projected back onto the retained modes.  The projector
of each (n, modes) and the basis on each fixed cosine grid (the 201 samples
of `sup_theta`, the 101 of the final positivity check) are formed once per
process, with read-only arrays.  A construction near an orbit iterates
phi <- L^{-1} rhs(phi), each group free of cancellation, with the one map

    rhs(phi) = B R_e(b; phi) + C (A phi + D),  R_e = (b + phi)^e - b^e - e b^{e-1} phi,

whose base b, e, b^e, A, B, C and D a problem's `build` gives on the (t, node) grid.

The per-mode linear inverse realizes the bounded right inverse of
L_i = -d^2/dt^2 + V_i(t) on functions decaying at a rate nu in one form for
every mode.  Each mode supplies a pair u = (u1, u2) on the window, its
Wronskian W and its period map S, (u1, u2)(s + P) = (u1, u2)(s) S, and

    phi = [u2 int_t^inf u1 f - u1 int_t^inf u2 f] / W.

A hyperbolic mode takes the kernel pair (psi-, psi+) = (q+ e^{-sigma t},
q- e^{sigma t}), S = diag(e^{-sigma P}, e^{sigma P}); for sigma > nu its
growing row is summed from the left, which gives the exponential-dichotomy
Green kernel, bounded by e^{-sigma|t-s|}.  A mode without dichotomy (mode 0,
Type II on a nonconstant orbit and Type IV on a constant one) takes its
fundamental pair, Phi's first row, Phi(0) = I, from the kernel branches'
shooting solve over one period, carried across the window by S = Phi(P),
and W = 1.  The integrands of period k beyond the window are those of the
last period times (e^{-nu P} S^T)^k, so the truncated tails are a geometric
sum of the last computed period.  A construction sweep inverts
every retained mode at once: the pairs are stacked, and the rate checks,
row directions and tail maps settled, once per construction, and each sweep
makes one set of array operations over (modes x 2 x nt).  All
cumulative integrals are sums of per-interval 6-point local quintic (O(h^6)
per interval) quadratures, formed for every row in one pass and summed in the
direction that keeps every partial sum dominated by its leading term, so no
exponential cancellation occurs; the one-period tail integral is read off the
same cumulative sum plus the same rule on the partial interval at T - P.  The
grid must be uniform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from . import floquet, index_set, spheres
from .fowler import FowlerOrbit, IntegrationError

DEFAULT_H = 1.0 / 64.0
DEFAULT_WINDOW = 12.0
DEFAULT_T0 = 5.0
RESONANCE_GAP = 1e-6
UNDERFLOW_FLOOR = 1e-14
MAX_SWEEPS = 60  # fixed-point sweeps per window before the start shifts
MAX_GRID_POINTS = 2 ** 17  # the README construction there: 578 MB peak RSS
_MAX_EXPONENT = math.log(np.finfo(float).max)  # e^x is finite up to it


class PositivityError(ValueError):
    """A field that must stay positive touched zero on the grid."""


class ResonanceError(ValueError):
    """Requested decay rate collides with a Floquet exponent."""


class DecayRateError(ValueError):
    """Requested decay rate is not positive: the inverse's integrals diverge."""


class ConstructionError(RuntimeError):
    """The fixed-point iteration failed to contract."""


class WindowError(ValueError):
    """A construction window needs an exponential beyond the float range."""


# ---------------------------------------------------------------------------
# grids, fields, forcing profiles
# ---------------------------------------------------------------------------

def valid_window(t0: float, window: float) -> bool:
    """Whether [t0, t0 + window] is a finite interval of positive length."""
    return math.isfinite(t0) and 0.0 < window < math.inf


def make_grid(t0: float = DEFAULT_T0, window: float = DEFAULT_WINDOW,
              h: float = DEFAULT_H) -> np.ndarray:
    """Uniform grid on [t0, t0 + window] with spacing (window rounded to h),
    of at most MAX_GRID_POINTS points."""
    if not (valid_window(t0, window) and 0.0 < h < math.inf):
        raise ValueError(f"grid needs a finite t0 and a finite positive window "
                         f"and h (t0 = {t0!r}, window = {window!r}, h = {h!r})")
    num = window / h  # inf where it overflows
    if num > MAX_GRID_POINTS or round(num) >= MAX_GRID_POINTS:
        raise ValueError(f"grid of {num + 1.0:.6g} points, more than "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS} (t0 = {t0!r}, "
                         f"window = {window!r}, h = {h!r})")
    num = round(num)
    if num < 8:
        raise ValueError(f"window too short for the stencil width: {num + 1} points, "
                         f"fewer than 9 (t0 = {t0!r}, window = {window!r}, h = {h!r})")
    return t0 + h * np.arange(num + 1)


@dataclass
class CylinderField:
    """Zonal-mode coefficients on a uniform t-grid."""

    t: np.ndarray
    modes: tuple
    coeffs: np.ndarray  # shape (len(modes), len(t))
    params: object = None

    def __post_init__(self):
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if self.coeffs.shape != (len(self.modes), self.t.size):
            raise ValueError("coefficient array shape mismatch")

    def evaluate(self, s) -> np.ndarray:
        """Values on the (t, s) tensor grid."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        basis = np.array([spheres.eval_zonal(m, s) for m in self.modes])
        return self.coeffs.T @ basis

    def on_cosines(self, num: int) -> np.ndarray:
        """Values at `num` equally spaced cosines s in [-1, 1], per grid time;
        `evaluate` on that grid, through a basis formed once per process."""
        return self.coeffs.T @ _cosine_basis(tuple(self.modes), num)

    def sup_theta(self) -> np.ndarray:
        """sup over theta of |field| per grid time (201 cosine samples)."""
        vals = self.on_cosines(201)
        return np.max(np.abs(vals, out=vals), axis=1)

    def mode_coefficient(self, degree: int) -> np.ndarray:
        for m, c in zip(self.modes, self.coeffs):
            if m.degree == degree:
                return c
        raise KeyError(f"no retained mode of degree {degree}")

    def combination(self, other: "CylinderField", alpha: float, beta_: float):
        return replace(self, coeffs=alpha * self.coeffs + beta_ * other.coeffs)


@dataclass(frozen=True)
class ForcingProfile:
    """K(t, theta) = k0 (1 + sum_j kappa_j e^{-beta_j t} Z_{k_j}(<axis, theta>))."""

    k0: float
    components: tuple = ()  # (degree, kappa, beta) triples

    def __post_init__(self):
        if not 0.0 < self.k0 < math.inf:
            raise ValueError(f"K(0) must be positive and finite, got "
                             f"k0 = {self.k0!r}")
        for deg, kappa, beta_ in self.components:
            if not math.isfinite(kappa):
                raise ValueError(f"forcing amplitudes must be finite, got "
                                 f"kappa = {kappa!r}")
            # flatness order at least 1; equality admits the resonant case
            # beta = sigma_1 = 1
            if not 1.0 - 1e-12 <= beta_ < math.inf:
                raise ValueError(f"forcing rates must be finite and at least "
                                 f"1 (flatness order), got beta = {beta_!r}")
            if deg < 0:
                raise ValueError("harmonic degree must be nonnegative")

    @property
    def active(self) -> tuple:  # those with a nonzero kappa, in order
        return tuple(c for c in self.components if c[1] != 0.0)

    @property
    def degrees(self) -> list:  # of the active components, ascending
        return sorted(deg for deg, _, _ in self.active)

    @property
    def is_flat(self) -> bool:
        return not self.active

    @property
    def min_rate(self) -> float:
        return min((b for _, _, b in self.active), default=math.inf)

    def deviation(self, t, s, rows) -> np.ndarray:
        """K - K(0) on the (t, s) tensor grid, formed without cancellation.

        `rows[k]` is the degree-k harmonic on s, for every active degree.
        Raises PositivityError, naming k0 and the least K and its t, where
        K itself is not positive.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((t.size, np.size(s)))
        for deg, kappa, beta_ in self.active:
            out += kappa * np.outer(np.exp(-beta_ * t), rows[deg])
        out = self.k0 * out
        k = np.min(self.k0 + out, axis=1)  # the least K at each t
        low = np.argmin(k)
        if k[low] <= 0:
            raise PositivityError(f"forcing profile K is not positive on the grid: min K = "
                                  f"{float(k[low])!r} at t = {float(t[low])!r} (k0 = {self.k0!r})")
        return out


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _stencil_weights(offsets, moments) -> np.ndarray:
    """Weights w with sum_i w_i offsets_i^k = moments[k] for k < len(offsets),
    a rule exact on those powers; moments k! [k = m] give a d^m/ds^m rule."""
    vander = np.vander(np.asarray(offsets, dtype=float), increasing=True).T
    return np.linalg.solve(vander, moments)


def _weighted_sum(points: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w[..., i] points[..., i], added in index order (the last running
    sum): a row gets the same bits alone and in any stack, which a BLAS
    product does not promise."""
    return np.cumsum(points * w, axis=-1)[..., -1]


def _local_rule(y: np.ndarray, interior, left, right) -> np.ndarray:
    """A local rule along the last axis of y, one row or a stack: `interior`
    slid over each row by np.correlate gives all but the outer two entries
    at each end, the 6-point rows of `left` and `right` those two."""
    n = y.shape[-1]
    out = np.empty(y.shape[:-1] + (n - interior.size + 5,))
    for row, res in zip(y.reshape(-1, n), out.reshape(-1, out.shape[-1])):
        res[2:-2] = np.correlate(row, interior, "valid")
    out[..., :2] = _weighted_sum(y[..., None, :6], left)
    out[..., -2:] = _weighted_sum(y[..., None, -6:], right)
    return out


_D2_INTERIOR = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_D2_EDGE0 = _stencil_weights(range(6), [0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
_D2_EDGE1 = _stencil_weights(range(-1, 5), [0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
_D2_LEFT = np.array([_D2_EDGE0, _D2_EDGE1])  # rows 0, 1 from the first 6 points
_D2_RIGHT = _D2_LEFT[::-1, ::-1]             # rows -2, -1 from the last 6


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order second derivative along the last axis by `_local_rule`;
    biased stencils on the outer two rows.  A row gets the same bits alone
    and in any stack."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] < 6:
        raise ValueError("need at least 6 grid points")
    return _local_rule(values, _D2_INTERIOR, _D2_LEFT, _D2_RIGHT) / (h * h)


# ---------------------------------------------------------------------------
# zonal projection of pointwise nonlinearities
# ---------------------------------------------------------------------------

class ZonalProjector:
    """Project pointwise (t, s) data onto retained zonal modes by quadrature.

    The Gauss-Jacobi rule has 8 (D + 1) nodes, D the highest retained
    degree (24 at D = 2).  Gauss rules converge geometrically on analytic
    integrands, and the conformal and CKN nonlinearities are analytic in s
    while the field stays positive: for |phi / xi| up to 0.8 this rule
    projects (xi + phi)^e to within 1e-12 relative of a 160-node rule.
    """

    def __init__(self, n: int, modes):
        self.n = n
        self.modes = tuple(modes)
        top = max(m.degree for m in self.modes)
        self.s, self.w = spheres.quadrature(n, 8 * (top + 1))
        self.basis = np.array([spheres.eval_zonal(m, self.s) for m in self.modes])
        self.norms = self.basis**2 @ self.w
        self.basis.flags.writeable = self.norms.flags.writeable = False

    def project(self, values: np.ndarray) -> np.ndarray:
        """(nt, ns) pointwise values -> (nmodes, nt) coefficients."""
        return (self.basis * self.w) @ values.T / self.norms[:, None]

    def rows(self, degrees) -> dict:
        """The harmonic of each degree on the nodes: a basis row when the
        degree is retained, evaluated otherwise."""
        held = {m.degree: z for m, z in zip(self.modes, self.basis)}
        return {k: held[k] if k in held else spheres.eval_zonal(
            spheres.HarmonicMode(k, self.n), self.s) for k in degrees}


# one projector per (n, modes) and one basis per cosine grid, for the life of
# the process: every construction and residual on those modes shares them
_projector = functools.lru_cache(maxsize=None)(ZonalProjector)


@functools.lru_cache(maxsize=None)
def _cosine_basis(modes, num: int) -> np.ndarray:
    """The zonal basis of `modes` at `num` equally spaced cosines in [-1, 1]
    (read-only)."""
    s = np.linspace(-1.0, 1.0, num)
    basis = np.array([spheres.eval_zonal(m, s) for m in modes])
    basis.flags.writeable = False
    return basis


# ---------------------------------------------------------------------------
# nonlinear residual operators
# ---------------------------------------------------------------------------

def _residual(field: CylinderField, proj: ZonalProjector, k) -> CylinderField:
    """-f_tt - Delta_theta f + q f - K f^e on the retained modes, every mode
    at once; K is a constant or its values on proj's (t, node) grid."""
    params = field.params
    vals = field.coeffs.T @ proj.basis
    if np.min(vals) <= 0:
        raise PositivityError("field must be strictly positive on the grid "
                              "(fractional power undefined)")
    nl_coeffs = proj.project(k * vals ** params.e)
    shift = np.array([[float(m.eigenvalue) + params.q] for m in field.modes])
    lin = (-second_derivative(field.coeffs, float(field.t[1] - field.t[0]))
           + shift * field.coeffs)
    return CylinderField(t=field.t, modes=field.modes, coeffs=lin - nl_coeffs,
                         params=params)


def residual_M(field: CylinderField, profile: ForcingProfile) -> CylinderField:
    """Conformal residual -f_tt - Delta_theta f + q f - K f^{(n+2)/(n-2)}."""
    if getattr(field.params, "kind", None) != "conformal":
        raise ValueError("residual_M requires conformal parameters")
    proj = _projector(field.params.n, tuple(field.modes))
    return _residual(field, proj, profile.k0 + profile.deviation(
        field.t, proj.s, proj.rows(profile.degrees)))


def residual_N(field: CylinderField) -> CylinderField:
    """CKN residual -f_tt - Delta_theta f + q f - f^{p-1}."""
    if getattr(field.params, "kind", None) != "ckn":
        raise ValueError("residual_N requires CKN parameters")
    return _residual(field, _projector(field.params.n, tuple(field.modes)), 1.0)


def _orbit_samples(orbit: FowlerOrbit, tgrid) -> np.ndarray:
    """xi on tgrid, read from the window with exactly that grid if any."""
    win = orbit._windows.get(_window_key(tgrid)) if len(tgrid) else None
    if win is not None and np.array_equal(win.t, tgrid):
        return win.xi
    return orbit.value(tgrid)


def orbit_field(orbit: FowlerOrbit, tgrid, max_degree: int = 2) -> CylinderField:
    """The orbit lifted to the cylinder window (all content in mode 0)."""
    modes = tuple(spheres.HarmonicMode(k, orbit.params.n)
                  for k in range(max_degree + 1))
    coeffs = np.zeros((len(modes), len(tgrid)))
    coeffs[0] = _orbit_samples(orbit, tgrid)
    return CylinderField(t=np.asarray(tgrid, dtype=float), modes=modes,
                         coeffs=coeffs, params=orbit.params)


# ---------------------------------------------------------------------------
# per-interval quadrature
# ---------------------------------------------------------------------------

_POWERS = np.arange(6) + 1.0  # int_a^b s^k ds = (b^{k+1} - a^{k+1}) / (k + 1)

# integral over one unit interval from 6 surrounding points (O(h^6) locally);
# the per-interval locality keeps directional cumulative sums free of
# exponential cancellation
_INT_CENTER = _stencil_weights(range(-2, 4), 1.0 / _POWERS)  # interval [0, 1]
_INT_LEFT0 = _stencil_weights(range(0, 6), 1.0 / _POWERS)    # first interval
_INT_LEFT1 = _stencil_weights(range(-1, 5), 1.0 / _POWERS)   # second interval
_INT_RIGHT1 = _stencil_weights(range(-3, 3), 1.0 / _POWERS)  # second to last
_INT_RIGHT0 = _stencil_weights(range(-4, 2), 1.0 / _POWERS)  # last interval
_INT_LEFT = np.array([_INT_LEFT0, _INT_LEFT1])     # rules on the first 6 points
_INT_RIGHT = np.array([_INT_RIGHT1, _INT_RIGHT0])  # rules on the last 6 points


def _interval_increments(y: np.ndarray, h: float) -> np.ndarray:
    """Integral over each grid interval via local quintic interpolation,
    along the last axis of y by `_local_rule`: the window starting at j - 2
    integrates interval j, j = 2 .. n - 4."""
    return _local_rule(y, _INT_CENTER, _INT_LEFT, _INT_RIGHT) * h


def _partial_interval_rule(num: int, start: float):
    """Rule for int_a^{t_k} y on a uniform grid of `num` points, where
    a = t_0 + start h and t_k is the first grid point above a.

    Returns (k, first, w) with the integral h * sum_i w_i y[first + i]; the
    six points are the ones `_interval_increments` uses for interval k - 1,
    so the rule is shifted inward at both edges of the grid as there.
    """
    j = min(max(int(math.floor(start)), 0), num - 2)
    first = min(max(j - 2, 0), num - 6)
    w = _stencil_weights(range(first - j, first - j + 6),
                         (1.0 - (start - j) ** _POWERS) / _POWERS)
    return j + 1, first, w


def _check_uniform(t: np.ndarray) -> None:
    """The cumulative and partial-interval rules assume uniform spacing."""
    steps = np.diff(t)
    if t.size < 6 or np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ValueError("inverse contexts need a uniform grid of at least "
                         "6 points")


# ---------------------------------------------------------------------------
# the per-mode bounded inverse
# ---------------------------------------------------------------------------

class ModeSolveContext:
    """Kernel data of one mode operator on a window, reused across solves:
    the pair `u`, its `wronskian` u1 u2' - u1' u2 and its period map `shift`
    (see the module docstring).  `pair_rhs_evals` and `pair_steps` count the
    fundamental-pair solve's right-hand-side evaluations and accepted steps,
    and `pair_defect` its largest junction mismatch (`floquet.shooting_read`
    at sigma = 0) relative to max |u1|, |u2| over one period; all three are
    0 for a hyperbolic mode, whose datum counts its kernel solve.
    """

    def __init__(self, orbit: FowlerOrbit, lam: float, tgrid):
        self.orbit = orbit
        self.lam = float(lam)
        self.window = _window(orbit, tgrid)  # grid, checks, last-period rule
        self.t = self.window.t
        self.datum = floquet.spectrum(orbit, [self.lam], with_factors=True)[self.lam]
        self.pair_rhs_evals = self.pair_steps = self.pair_defect = 0
        if self.datum.type == floquet.TYPE_III:
            self._setup_hyperbolic()
        else:
            self._setup_fundamental_pair()
        self.u.flags.writeable = self.shift.flags.writeable = False

    def _setup_hyperbolic(self):
        d = self.datum
        t, t0 = self.t, self.t[0]
        self.sigma = d.sigma
        qp, qm = d.q_plus(t), d.q_minus(t)
        # the kernel pair psi- = q+ e^{-sigma(t-t0)}, psi+ = q- e^{+sigma(t-t0)}
        # and its Wronskian at t0, the one place derivatives are needed
        self.u = np.array([qp * np.exp(-self.sigma * (t - t0)),
                           qm * np.exp(self.sigma * (t - t0))])
        self.shift = np.diag(np.exp([-self.sigma * self.orbit.period,
                                     self.sigma * self.orbit.period]))
        qp_d, qm_d = d.q_plus.derivative(t0), d.q_minus.derivative(t0)
        self.wronskian = float(qp[0] * (qm_d + self.sigma * qm[0])
                               - (qp_d - self.sigma * qp[0]) * qm[0])
        if abs(self.wronskian) < 1e-10:
            named = self.orbit.named(("lambda", self.lam),
                                     ("wronskian", self.wronskian))
            raise IntegrationError(f"degenerate Floquet kernel pair ({named})")

    def _setup_fundamental_pair(self):
        orbit, period = self.orbit, self.orbit.period
        rhs, span, y0, seeds = floquet.shooting_problem(
            orbit, [self.datum] * 2, np.eye(2))
        sol = solve_ivp(rhs, span, y0, **floquet.SHOOTING_OPTIONS)
        if not sol.success:
            raise IntegrationError(f"fundamental pair integration failed "
                                   f"({orbit.named(('lambda', self.lam))})")
        self.pair_rhs_evals, self.pair_steps = int(sol.nfev), len(sol.t) - 1
        # Phi(0) = I, so M^T closes the last piece; Phi(s + kP) = Phi(s) S^k
        k, s = np.divmod(self.t, period)
        first, self.shift, mismatch = floquet.shooting_read(
            sol, seeds, s, self.datum.monodromy.T, 0.0)
        self.pair_defect = float(np.max(mismatch) / np.max(np.abs(first)))
        self.u = np.empty_like(first)
        power = np.linalg.matrix_power(self.shift, int(k[0]))
        for j in range(int(k[0]), int(k[-1]) + 1):
            sel = k == j
            self.u[:, sel] = power.T @ first[:, sel]
            power = power @ self.shift
        self.wronskian = 1.0

    def tail_map(self, nu: float):
        """What the inverse fixes at decay rate nu: the 2x2 map
        T = (I - m)^{-1} m, m = e^{-nu P} S^T, from the last-period integrals J
        of (a f, b f) to their missing tails T J, and whether b f is summed
        from the left (hyperbolic, sigma > nu; that row of T is 0).

        Raises DecayRateError for nu <= 0, where the from-the-right
        integrals diverge, and ResonanceError within RESONANCE_GAP of the
        mode exponent.
        """
        where = self.orbit.named(("lambda", self.lam), ("nu", nu))
        if not nu > 0.0:
            raise DecayRateError(f"decay rate must be positive ({where})")
        sigma = self.sigma if self.datum.type == floquet.TYPE_III else None
        if sigma is not None and abs(sigma - nu) < RESONANCE_GAP:
            raise ResonanceError(
                f"decay rate {nu!r} within {RESONANCE_GAP:g} of the mode "
                f"exponent {sigma!r} ({where}); use the t-power (resonant) "
                f"path")
        m = math.exp(-nu * self.orbit.period) * self.shift.T
        tails = np.linalg.solve(np.eye(2) - m, m)
        from_left = sigma is not None and sigma > nu
        if from_left:
            tails[1] = 0.0  # set, not scaled by 0, which would keep a NaN
        return tails, from_left

    def solve(self, rhs, nu: float):
        """phi with L phi = rhs, decaying at rate nu, on the window grid: the
        one-mode case of `_StackedInverse`."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != self.t.shape:
            raise ValueError("rhs must live on the context grid")
        return _StackedInverse([self], nu)(rhs[None])[0]


class _StackedInverse:
    """The bounded inverses of several modes of one window at one decay
    rate nu, applied to all of them in one set of array operations.

    From each mode's pair u and Wronskian W,

        phi = A (R[a f] + tau_a) + B (R[b f] + tau_b),

    (A, B) = (u2, -u1), (a, b) = (u1, u2) / W, R the cumulative integral
    from the right and tau = T J the tails of each mode's `tail_map`.  A row
    summed from the left takes -int_{t0}^t instead, which differs from
    int_t^inf by a kernel multiple.  The rows are stacked to (modes, 2, nt);
    the rate checks, row directions and maps T are settled here, once per
    rate.  A call forms the interval increments of all rows at once and
    takes each row's cumulative sum in its direction from them.
    """

    def __init__(self, contexts, nu: float):
        (self.window,) = {ctx.window for ctx in contexts}  # the one they share
        tails, from_left = zip(*(ctx.tail_map(nu) for ctx in contexts))
        self.tails = np.array(tails)
        u = np.array([ctx.u for ctx in contexts])
        self.outer = np.stack([u[:, 1], -u[:, 0]], axis=1)
        self.inner = u / np.array([[[ctx.wronskian]] for ctx in contexts])
        left = np.array([[False, f] for f in from_left]).ravel()
        self.left, self.right = np.flatnonzero(left), np.flatnonzero(~left)

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        """(modes, nt) right-hand sides -> (modes, nt) solutions."""
        g = (self.inner * rhs[:, None, :]).reshape(-1, rhs.shape[-1])
        inc = _interval_increments(g, self.window.h)
        cum = np.zeros_like(g)
        cum[self.right, :-1] = np.cumsum(inc[self.right, ::-1], axis=-1)[:, ::-1]
        cum[self.left, 1:] = np.cumsum(inc[self.left], axis=-1)
        cum[self.left] = -cum[self.left]  # -int_{t0}^t, -0.0 at t0 included
        # a row summed from the left meets a zero column of its T
        j = self.window.last_period(g, cum).reshape(-1, 2, 1)
        cum = cum.reshape(self.outer.shape) + self.tails @ j
        return self.outer[:, 0] * cum[:, 0] + self.outer[:, 1] * cum[:, 1]


class _Window:
    """An orbit on a window covering one period: read-only grid and samples,
    what its modes' inverses share (step, last-period rule), their contexts."""

    def __init__(self, orbit: FowlerOrbit, tgrid):
        self.t = np.array(tgrid, dtype=float)
        if orbit.period > self.t[-1] - self.t[0]:
            raise ValueError(
                f"window [{float(self.t[0])!r}, {float(self.t[-1])!r}] must cover "
                f"at least one orbit period ({orbit.named(('T', orbit.period))})")
        self.h = float(self.t[1] - self.t[0])
        self.last_period_rule = _partial_interval_rule(
            self.t.size, (self.t[-1] - orbit.period - self.t[0]) / self.h)
        self.xi = orbit.value(self.t)
        self.t.flags.writeable = self.xi.flags.writeable = False
        self.contexts = {}

    def last_period(self, integrand, cum):
        """int_{T-P}^{T} of the integrand (per row), from its from-the-right
        sums."""
        k, first, w = self.last_period_rule
        return cum[..., k] + self.h * _weighted_sum(
            integrand[..., first:first + 6], w)


def _window_key(tgrid) -> tuple:
    """The endpoints and size only, which fix a uniform grid."""
    return float(tgrid[0]), float(tgrid[-1]), len(tgrid)


def _window(orbit: FowlerOrbit, tgrid) -> _Window:
    """The orbit's state on a uniform window, set up, and its grid checked,
    on first use."""
    tgrid = np.asarray(tgrid, dtype=float)
    key = _window_key(tgrid)
    win = orbit._windows.get(key)
    if win is None:
        _check_uniform(tgrid)
        win = orbit._windows[key] = _Window(orbit, tgrid)
    elif tgrid is not win.t and not np.array_equal(tgrid, win.t):
        # another grid under the same key passes if uniform up to roundoff
        _check_uniform(tgrid)
    return win


def _context_cache(orbit, lam, tgrid) -> ModeSolveContext:
    contexts = _window(orbit, tgrid).contexts
    if float(lam) not in contexts:
        contexts[float(lam)] = ModeSolveContext(orbit, lam, tgrid)
    return contexts[float(lam)]


# ---------------------------------------------------------------------------
# decay-rate fitting
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    slope: float
    log_corrected: bool
    r2: float
    slope_plain: float
    slope_log: float
    r2_plain: float
    r2_log: float
    n_points: int
    window: tuple
    warning: str | None = None


def decay_rate_fit(arg, t_window=None, floor: float = UNDERFLOW_FLOOR) -> FitResult:
    """Fit sup_theta |diff| ~ C e^{-gamma t} and ~ C t e^{-gamma t}.

    `arg` is either a CylinderField or a (t, values) pair.  Points below
    `floor` are dropped (window shrunk, with a warning recorded).  Both
    two-parameter models are fit to log values; the better r^2 decides
    whether the t-prefactor (log correction) is preferred.
    """
    if isinstance(arg, CylinderField):
        t, vals = arg.t, arg.sup_theta()
    else:
        t, vals = np.asarray(arg[0], dtype=float), np.asarray(arg[1], dtype=float)
    lo, hi = (-math.inf, math.inf) if t_window is None else t_window
    inside = (t >= lo) & (t <= hi)
    # the t-prefactor model needs t > 0
    mask = inside & np.isfinite(vals) & (vals > 0) & (t > 0)
    warning = None
    if np.any(mask & (vals <= floor)):
        warning = f"window shrunk: values at/below the {floor:g} floor dropped"
        mask &= vals > floor
    if mask.sum() < 4:
        top = np.max(vals[inside & np.isfinite(vals)], initial=-math.inf)
        raise ValueError(
            f"not enough usable points for a decay fit: {mask.sum()} of "
            f"{inside.sum()} in the window [{float(lo)!r}, {float(hi)!r}] are "
            f"finite, above the floor {floor!r} and at t > 0, fewer than 4 "
            f"(largest value {float(top)!r})")
    tt, yy = t[mask], np.log(vals[mask])

    def lsq(target):
        a = np.column_stack([np.ones_like(tt), -tt])
        coef, *_ = np.linalg.lstsq(a, target, rcond=None)
        pred = a @ coef
        return coef[1], pred

    sst = float(np.sum((yy - np.mean(yy)) ** 2))
    slope_plain, pred_plain = lsq(yy)
    slope_log, pred_log_base = lsq(yy - np.log(tt))
    pred_log = pred_log_base + np.log(tt)

    def r2(pred):
        sse = float(np.sum((yy - pred) ** 2))
        return 1.0 - sse / sst if sst > 0 else 1.0

    r2_plain, r2_log = r2(pred_plain), r2(pred_log)
    # prefer the t-prefactor model only on a meaningful residual reduction;
    # ln t is nearly affine on short windows, so hairline r^2 gains are noise
    log_corrected = (r2_log - r2_plain) > 0.05 * (1.0 - r2_plain)
    return FitResult(
        slope=slope_log if log_corrected else slope_plain,
        log_corrected=log_corrected,
        r2=max(r2_plain, r2_log),
        slope_plain=slope_plain, slope_log=slope_log,
        r2_plain=r2_plain, r2_log=r2_log,
        n_points=int(mask.sum()),
        window=(float(tt[0]), float(tt[-1])),
        warning=warning)


def period_aligned_window(field, orbit):
    """Fit window spanning a whole number of orbit periods, so the periodic
    coefficient modulation does not bias the slope: from 0.5 after the
    field's first time to at most 1.5 before its last."""
    lo = field.t[0] + 0.5
    avail = field.t[-1] - 1.5 - lo
    k = max(1, int(math.floor(avail / orbit.period)))
    return lo, lo + k * orbit.period


def perturbation_fit(field, reference, orbit):
    """field - reference and its decay fit over whole orbit periods."""
    diff = field.combination(reference, 1.0, -1.0)
    return diff, decay_rate_fit(diff, t_window=period_aligned_window(diff, orbit))


# ---------------------------------------------------------------------------
# contraction constructions
# ---------------------------------------------------------------------------

@dataclass
class IterationTrace:
    norms: list
    factors: list
    t0: float
    nu: float
    converged: bool
    iterations: int
    escalations: int


def _power_remainder(exponent: float, base, base_pow, delta):
    """(base + delta)^e - base^e - e base^{e-1} delta without cancellation,
    given base_pow = base^e, which a construction forms once per window.

    For |delta/base| below 1e-3 the quadratic Taylor remainder is evaluated
    by its series, keeping the result accurate relative to its own (tiny)
    size; the direct form would leave absolute roundoff of the O(1) terms.
    The series base_pow c2 x x (1 + (e-2) x/3 + (e-2)(e-3) x x/12) is formed
    in three buffers, with the operations and their order of the expression.
    """
    x = delta / base
    tmp = np.abs(x)
    # NaN counts as far
    far = ~(tmp < 1e-3)
    np.multiply(x, (exponent - 2.0) * (exponent - 3.0), out=tmp)
    tmp *= x
    tmp /= 12.0
    out = np.multiply(base_pow, exponent * (exponent - 1.0) / 2.0,
                      out=np.empty_like(x))
    out *= x
    out *= x
    x *= exponent - 2.0
    x /= 3.0
    x += 1.0
    x += tmp
    out *= x
    # the direct form is evaluated only on the points that use it
    if far.any():
        b = np.broadcast_to(base, x.shape)[far]
        d = np.broadcast_to(delta, x.shape)[far]
        b_pow = np.broadcast_to(base_pow, x.shape)[far]
        out[far] = (b + d) ** exponent - b_pow - exponent * b ** (
            exponent - 1.0) * d
    return out


def _pick_off_resonant_rate(beta: float, sigmas) -> float:
    """Working decay rate for the iteration norm.

    Off resonance this is beta itself; if beta collides with an exponent the
    iteration runs at a slightly smaller non-colliding rate (the t e^{-beta t}
    growth then emerges from the causal Green kernel automatically).
    """
    sigmas = sorted(set(round(s, 12) for s in sigmas))
    if all(abs(beta - s) > RESONANCE_GAP for s in sigmas):
        return beta
    below = [s for s in sigmas if s < beta - RESONANCE_GAP]
    lo = max(below) if below else beta / 2.0
    nu = (lo + beta) / 2.0
    if any(abs(nu - s) <= 1e-3 for s in sigmas):
        nu = lo + 0.7 * (beta - lo)
    return nu


def _degree_exponents(orbit: FowlerOrbit, top: int) -> list:
    """The Floquet exponents of degrees 1..top; mode 0 joins their batch."""
    _, *data = floquet.spectrum(orbit, [spheres.eigenvalue(k, orbit.params.n)
                                        for k in range(top + 1)]).values()
    if any(d.type != floquet.TYPE_III for d in data):
        raise floquet.FloquetStructureError(
            f"a mode of degree 1..{top} is not hyperbolic ({orbit.named()})")
    return [d.sigma for d in data]


def _iterate(orbit, tgrid, modes, rhs0, rhs_fn, nu, tol):
    """Generic fixed-point loop phi <- L^{-1} rhs(phi), every mode at once,
    from phi = 0, where the rhs is rhs0.

    Stops on a relative update below tol, or once updates stagnate at the
    weighted-norm roundoff floor (the e^{nu t} weight amplifies right-end
    rounding, so arbitrarily small tolerances are not reachable); reports
    non-contraction only while updates are still far above that floor.
    """
    contexts = [_context_cache(orbit, float(m.eigenvalue), tgrid) for m in modes]
    inverse = _StackedInverse(contexts, nu)
    phi = None
    wn = np.exp(nu * tgrid)

    def norm(arr):
        return float(np.max(wn * np.sum(np.abs(arr), axis=0)))

    norms, factors, diffs = [], [], []
    converged = False
    for it in range(MAX_SWEEPS):
        if phi is None:
            new = inverse(rhs0)
            diff = norm(new)  # new - 0 is new exactly
            norms.append(diff)
        else:
            new = inverse(rhs_fn(phi))
            diff = norm(new - phi)
            norms.append(norm(new))
        if diffs and diffs[-1] > 0:
            factors.append(diff / diffs[-1])
        diffs.append(diff)
        phi = new
        scale = max(1.0, norms[-1])
        if diff <= tol * scale:
            converged = True
            break
        if (len(diffs) >= 3 and all(d < 1e-5 * scale for d in diffs[-3:])
                and diffs[-1] > 0.1 * diffs[-3]):
            converged = True  # stagnation at the rounding floor
            break
        if (len(factors) >= 2 and min(factors[-2:]) >= 1.0
                and diff > 1e-4 * scale):
            break
    return phi, norms, factors, converged, it + 1


def _construct(orbit: FowlerOrbit, modes, nu: float, build, t0: float,
               window: float, h: float, tol: float, rates):
    """The fixed-point construction near an orbit shared by both problems.

    `build(tgrid, xi_t, proj)` states the problem on the window, xi_t the
    orbit's read-only samples there: the base coefficients and, on the
    (t, Gauss node) grid, the base b, the exponent e, b^e and the factors
    A, B, C, D (arrays, or 1.0) of the map

        rhs(phi) = B R_e(b; phi) + C (A phi + D),

    R_e the remainder `_power_remainder`.  The forcing C D, the map at
    phi = 0, is formed once per window and projected by the first sweep;
    each later one synthesizes phi on the nodes, refuses an iterate b + phi
    that is not positive there, forms the map in place and projects it:
    phi <- L^{-1} rhs(phi).  A base b, or a result base + phi on 101
    cosines, that is not positive is refused too.  Whenever the iteration
    fails to converge within MAX_SWEEPS sweeps (a measured factor >= 1 or
    the sweep cap) the window start t0 doubles, at most four times.  Each
    window, the first included, is refused with WindowError before it is
    set up when an exponential it needs overflows: the weight e^{nu t}, a
    hyperbolic mode's kernel pair e^{sigma (t - t0)} or the forcing
    e^{-r t} of each (name, r) of `rates`; after the base's positivity, a
    b^e, A, B, C or D that is not finite is refused the same way.  Returns the base field, the
    field base + phi and the iteration trace.
    """
    params = orbit.params
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got tol = {tol!r}")
    # Floquet data with kernel factors for every mode in one batch; each
    # window's contexts then read them from `floquet.spectrum`
    data = floquet.spectrum(orbit, [m.eigenvalue for m in modes],
                            with_factors=True).values()
    # (exponential, rate r, whether its e^{r s} runs over s = t - t0)
    growth = ([("the weight e^{nu t}", nu, False)]
              + [("the kernel pair e^{sigma (t - t0)}", d.sigma, True)
                 for d in data if d.type == floquet.TYPE_III]
              + [(f"the forcing e^{{-{name} t}}", -r, False)
                 for name, r in rates])
    proj = _projector(params.n, modes)
    escalations = 0
    while True:
        tgrid = make_grid(t0, window, h)
        first, last = float(tgrid[0]), float(tgrid[-1])
        where = orbit.named(("t0", t0), ("window", window))
        for name, r, shifted in growth:
            lo, hi = (0.0, last - first) if shifted else (first, last)
            if max(r * lo, r * hi) > _MAX_EXPONENT:
                raise WindowError(f"{name} overflows on the window ({where}, "
                                  f"rate = {abs(r)!r})")
        win = _window(orbit, tgrid)
        base, b, e, b_e, A, B, C, D = build(tgrid, win.xi, proj)
        if np.min(b) <= 0:
            raise PositivityError(f"base field not positive on the grid ({where})")
        if not all(np.isfinite(x).all() for x in (b_e, A, B, C, D)):
            raise WindowError(f"the power b^e or a factor A, B, C, D of the "
                              f"map is not finite on the window ({where})")
        forcing = C * D
        forcing.flags.writeable = False
        vals = np.empty(forcing.shape)

        def rhs_fn(phi_coeffs):
            phi_vals = phi_coeffs.T @ proj.basis
            if np.min(np.add(b, phi_vals, out=vals)) <= 0:
                raise PositivityError(f"iterate lost positivity ({where})")
            out = _power_remainder(e, b, b_e, phi_vals)
            out *= B
            phi_vals *= A
            phi_vals += D
            phi_vals *= C
            out += phi_vals
            return proj.project(out)

        # on the window's own grid, the context lookups skip the grid check
        phi, norms, factors, converged, iters = _iterate(
            orbit, win.t, modes, proj.project(forcing), rhs_fn, nu, tol)
        if converged:
            break
        if escalations >= 4:
            raise ConstructionError(
                f"construction did not converge in {MAX_SWEEPS} sweeps at "
                f"t0 = {t0!r} after {escalations} window shifts; measured "
                f"factors {factors[-3:]} ({orbit.named()})")
        t0 *= 2.0
        escalations += 1
    trace = IterationTrace(norms=norms, factors=factors, t0=t0, nu=nu,
                           converged=converged, iterations=iters,
                           escalations=escalations)
    v = CylinderField(t=tgrid, modes=modes, coeffs=base + phi, params=params)
    if np.min(v.on_cosines(101)) <= 0:
        raise PositivityError(f"constructed field is not positive ({where})")
    return CylinderField(t=tgrid, modes=modes, coeffs=base, params=params), v, trace


def contraction_construct(orbit: FowlerOrbit, profile: ForcingProfile,
                          t0: float = DEFAULT_T0, window: float = DEFAULT_WINDOW,
                          max_degree: int = 2, tol: float = 1e-10,
                          h: float = DEFAULT_H):
    """Fixed-point construction of a solution v = xi + phi of the conformal
    cylinder equation with curvature profile K.

    Iterates phi <- L^{-1}[(K - K0)(xi + phi)^e + K0((xi + phi)^e - xi^e
    - e xi^{e-1} phi)] in the discrete weighted norm; whenever the iteration
    fails to converge within MAX_SWEEPS sweeps the window start t0 doubles
    (up to 4 times) before giving up.
    """
    params = orbit.params
    if params.kind != "conformal":
        raise ValueError("contraction_construct requires conformal provenance")
    if profile.k0 != params.c:
        raise ValueError(f"profile K(0) = {profile.k0!r} differs from the "
                         f"orbit's K(0) = {params.c!r}")
    if max_degree < 0:
        raise ValueError(f"the retained degrees need max_degree >= 0, got "
                         f"max_degree = {max_degree!r}")
    n, e, k0 = params.n, params.e, params.c
    # phi is seeded only by forcing of a retained degree: without one,
    # phi = 0 is the exact fixed point and the decay fit has nothing to fit
    degrees = profile.degrees
    if degrees and degrees[0] > max_degree:
        raise ValueError(f"forcing degree {degrees[0]} above the retained "
                         f"degrees 0..{max_degree}: no forcing component of "
                         f"a retained degree seeds the construction")
    modes = tuple(spheres.HarmonicMode(k, n) for k in range(max_degree + 1))
    if profile.is_flat:
        nu = 2.0  # arbitrary finite rate; the rhs vanishes and phi = 0
    else:
        sigmas = _degree_exponents(orbit, max_degree + 1)
        nu = _pick_off_resonant_rate(profile.min_rate, sigmas)

    def build(tgrid, xi_t, proj):
        k_dev = profile.deviation(tgrid, proj.s, proj.rows(degrees))
        xi = xi_t[:, None]
        xi_e = xi**e
        base = np.zeros((len(modes), tgrid.size))
        base[0] = xi_t
        return base, xi, e, xi_e, e * xi ** (e - 1.0), k0 + k_dev, k_dev, xi_e

    _, v, trace = _construct(orbit, modes, nu, build, t0, window, h, tol,
                             [("beta", b) for _, _, b in profile.active])
    return v, trace


def ckn_construct(orbit: FowlerOrbit, nu: float, amplitude: float = 0.05,
                  degree: int = 1, t0: float = DEFAULT_T0,
                  window: float = DEFAULT_WINDOW, max_degree: int = 2,
                  tol: float = 1e-10, h: float = DEFAULT_H):
    """Fixed-point solution w of the CKN cylinder equation near the approximate
    solution w_hat = zeta + amplitude e^{-nu t} Z_degree.

    Requires nu > sigma_1 and nu outside the exponent index set (checked up
    to the cutoff nu + 1).  The window start doubles as in
    `contraction_construct`.  Returns (w field, w_hat field, trace).
    """
    params = orbit.params
    if params.kind != "ckn":
        raise ValueError("ckn_construct requires CKN provenance")
    if not 0 <= degree <= max_degree:
        raise ValueError(f"perturbation degree {degree} outside the retained "
                         f"degrees 0..{max_degree}")
    for name, value in (("nu", nu), ("amplitude", amplitude)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name} = {value!r}")
    n, p = params.n, params.p
    sigmas = _degree_exponents(orbit, max_degree + 3)
    if nu <= sigmas[0]:
        raise ValueError(f"nu must exceed sigma_1 "
                         f"({orbit.named(('nu', nu), ('sigma_1', sigmas[0]))})")
    iset = index_set.generate(sigmas, max(nu + 1.0, sigmas[0] * 2 + 0.5),
                              tol=RESONANCE_GAP, degrees=range(1, max_degree + 4))
    if np.any(np.abs(iset.values - nu) <= RESONANCE_GAP * 100):
        raise ResonanceError(f"nu lies in the exponent index set "
                             f"({orbit.named(('nu', nu))})")

    modes = tuple(spheres.HarmonicMode(k, n) for k in range(max_degree + 1))
    lam_pert = float(spheres.eigenvalue(degree, n))

    def build(tgrid, zeta_t, proj):
        pert = amplitude * np.outer(np.exp(-nu * tgrid), proj.basis[degree])
        what_vals = zeta_t[:, None] + pert
        # N(w_hat) analytically: the zeta part solves the ODE and the
        # perturbation is an explicit exponential times a harmonic, so
        #   N(w_hat) = (lam + q - nu^2) pert - [w_hat^{p-1} - zeta^{p-1}],
        # with the power difference taken through expm1 for stability; a
        # w_hat <= 0 gives NaN here and an overflowing power inf, both of
        # which `_construct` refuses
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            what_pow = what_vals ** (p - 1.0)
            log_rel = np.log1p(pert / zeta_t[:, None])
            power_jump = (zeta_t ** (p - 1.0))[:, None] * np.expm1(
                (p - 1.0) * log_rel)
            forcing = -((lam_pert + params.q - nu * nu) * pert - power_jump)
            # (p-1)(w_hat^{p-2} - zeta^{p-2}), the linearization-offset factor
            lin_offset = (p - 1.0) * (zeta_t ** (p - 2.0))[:, None] * np.expm1(
                (p - 2.0) * log_rel)
        what_coeffs = np.zeros((len(modes), tgrid.size))
        what_coeffs[0] = zeta_t
        what_coeffs[degree] += amplitude * np.exp(-nu * tgrid)
        return (what_coeffs, what_vals, p - 1.0, what_pow, lin_offset, 1.0,
                1.0, forcing)

    w_hat, w, trace = _construct(orbit, modes, nu, build, t0, window, h, tol,
                                 [("nu", nu)])
    return w, w_hat, trace


def fit_kernel_amplitude(field_diff: CylinderField, orbit: FowlerOrbit) -> float:
    """Amplitude of the first-order kernel term in a difference field.

    The degree-1 coefficient is regressed on e^{-t}((n-2)/2 xi - xi') over
    the trailing two orbit periods only: the kernel branch decays
    slowest, so genuine kernel content dominates the tail while any
    faster-decaying response contributes an exponentially small bias there.
    """
    n = orbit.params.n
    t = field_diff.t
    mask = t >= t[-1] - 2.0 * orbit.period
    c1 = field_diff.mode_coefficient(1)[mask]
    basis = np.exp(-t[mask]) * ((n - 2) / 2.0 * orbit.value(t[mask])
                                - orbit.derivative(t[mask]))
    denom = float(basis @ basis)
    return float(basis @ c1) / denom if denom > 0 else 0.0
