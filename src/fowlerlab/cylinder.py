"""Mode-truncated solver for the half-cylinder equations.

Fields live on a uniform t-grid times a zonal harmonic basis; theta enters
only through s = <axis, theta>.  The nonlinear operators

    M(f) = -f_tt - Delta_theta f + q f - K f^e        (conformal, e = (n+2)/(n-2))
    N(f) = -f_tt - Delta_theta f + q f - f^{p-1}       (CKN)

are evaluated with 4th-order finite differences in t (biased stencils on the
outermost two rows) and pseudo-spectral handling of the fractional power:
pointwise on a Gauss-Jacobi cosine grid of 8 (D + 1) nodes, D the highest
retained degree, then projected back onto the retained modes.

The per-mode linear inverse realizes the bounded right inverse of
L_i = -d^2/dt^2 + V_i(t) on decaying functions through the variation-of-
parameters representation with Floquet-adapted kernel pairs.  For a mode with
hyperbolic exponent sigma and target decay rate nu:

    sigma > nu:  phi = [psi-  int_{t0}^t psi+ f  +  psi+ int_t^T psi- f] / W
    sigma < nu:  phi = [psi+  int_t^T  psi- f  -  psi-  int_t^T psi+ f] / W

(psi-/psi+ the decaying/growing kernel elements).  The first is the
exponential-dichotomy Green kernel, bounded by e^{-sigma|t-s|}; the second is
the unique representation decaying at the faster rate nu.  Truncated upper
tails are restored by one-period extrapolation: the integrands reproduce
themselves under t -> t + T_orbit up to the factor e^{+-sigma T} e^{-nu T},
so the missing integral is a geometric sum of the last computed period.
Mode 0 (no dichotomy) uses the same from-the-right representation with a
fundamental pair integrated over one period and carried across the window by
its 2x2 quasi-periodicity relation, which also gives the tails.  All
cumulative integrals are sums of per-interval 6-point local quintic (O(h^6)
per interval) quadratures taken in the direction that keeps every partial sum
dominated by its leading term, so no exponential cancellation occurs; the
one-period tail integral is read off the same cumulative sum plus the same
rule on the partial interval at T - P.  The grid must be uniform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import solve_ivp

from . import floquet, index_set, spheres
from .fowler import DenseSolution, FowlerOrbit, IntegrationError

DEFAULT_H = 1.0 / 64.0
DEFAULT_WINDOW = 12.0
DEFAULT_T0 = 5.0
RESONANCE_GAP = 1e-6
UNDERFLOW_FLOOR = 1e-14


class PositivityError(ValueError):
    """A field that must stay positive touched zero on the grid."""


class ResonanceError(ValueError):
    """Requested decay rate collides with a Floquet exponent."""


class DecayRateError(ValueError):
    """Requested decay rate is not positive: the inverse's integrals diverge."""


class ConstructionError(RuntimeError):
    """The fixed-point iteration failed to contract."""


# ---------------------------------------------------------------------------
# grids, fields, forcing profiles
# ---------------------------------------------------------------------------

def make_grid(t0: float = DEFAULT_T0, window: float = DEFAULT_WINDOW,
              h: float = DEFAULT_H) -> np.ndarray:
    """Uniform grid on [t0, t0 + window] with spacing (window rounded to h)."""
    num = int(round(window / h))
    if num < 8:
        raise ValueError("window too short for the stencil width")
    return t0 + h * np.arange(num + 1)


@dataclass
class CylinderField:
    """Zonal-mode coefficients on a uniform t-grid."""

    t: np.ndarray
    modes: tuple
    coeffs: np.ndarray  # shape (len(modes), len(t))
    params: object = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if self.coeffs.shape != (len(self.modes), self.t.size):
            raise ValueError("coefficient array shape mismatch")

    def evaluate(self, s) -> np.ndarray:
        """Values on the (t, s) tensor grid."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        basis = np.array([spheres.eval_zonal(m, s) for m in self.modes])
        return self.coeffs.T @ basis

    def sup_theta(self, num: int = 201) -> np.ndarray:
        """sup over theta of |field| per grid time (dense cosine sampling)."""
        s = np.linspace(-1.0, 1.0, num)
        return np.max(np.abs(self.evaluate(s)), axis=1)

    def mode_coefficient(self, degree: int) -> np.ndarray:
        for m, c in zip(self.modes, self.coeffs):
            if m.degree == degree:
                return c
        raise KeyError(f"no retained mode of degree {degree}")

    def combination(self, other: "CylinderField", alpha: float, beta_: float):
        return replace(self, coeffs=alpha * self.coeffs + beta_ * other.coeffs,
                       meta={})

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"degree_{m.degree}" for m in self.modes])
            for i, tv in enumerate(self.t):
                writer.writerow([repr(float(tv))]
                                + [repr(float(c[i])) for c in self.coeffs])


@dataclass(frozen=True)
class ForcingProfile:
    """K(t, theta) = k0 (1 + sum_j kappa_j e^{-beta_j t} Z_{k_j}(<axis, theta>))."""

    k0: float
    components: tuple = ()  # (degree, kappa, beta) triples

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("K(0) must be positive")
        for deg, kappa, beta_ in self.components:
            # flatness order at least 1; equality admits the resonant case
            # beta = sigma_1 = 1
            if beta_ < 1.0 - 1e-12:
                raise ValueError("forcing rates must be at least 1 "
                                 "(flatness order)")
            if deg < 0:
                raise ValueError("harmonic degree must be nonnegative")

    @property
    def is_flat(self) -> bool:
        return len(self.components) == 0 or all(k == 0 for _, k, _ in self.components)

    @property
    def min_rate(self) -> float:
        active = [b for _, k, b in self.components if k != 0.0]
        return min(active) if active else math.inf

    def deviation(self, t, s, n: int) -> np.ndarray:
        """K - K(0) on the (t, s) tensor grid, formed without cancellation."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros((t.size, s.size))
        for deg, kappa, beta_ in self.components:
            if kappa == 0.0:
                continue
            z = spheres.eval_zonal(spheres.HarmonicMode(deg, n), s)
            out += kappa * np.outer(np.exp(-beta_ * t), z)
        return self.k0 * out

    def evaluate(self, t, s, n: int) -> np.ndarray:
        out = self.k0 + self.deviation(t, s, n)
        if np.min(out) <= 0:
            raise PositivityError("forcing profile K is not positive on the grid")
        return out


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _stencil_weights(offsets, moments) -> np.ndarray:
    """Weights w with sum_i w_i offsets_i^k = moments[k] for k < len(offsets),
    a rule exact on those powers; moments k! [k = m] give a d^m/ds^m rule."""
    vander = np.vander(np.asarray(offsets, dtype=float), increasing=True).T
    return np.linalg.solve(vander, moments)


_D2_INTERIOR = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_D2_EDGE0 = _stencil_weights(range(6), [0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
_D2_EDGE1 = _stencil_weights(range(-1, 5), [0.0, 0.0, 2.0, 0.0, 0.0, 0.0])


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order second derivative; biased stencils on the outer two rows."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    if n < 6:
        raise ValueError("need at least 6 grid points")
    out = np.empty_like(values)
    out[..., 2:-2] = sum(w * values[..., i:n - 4 + i]
                         for i, w in enumerate(_D2_INTERIOR))
    out[..., 0] = values[..., :6] @ _D2_EDGE0
    out[..., 1] = values[..., :6] @ _D2_EDGE1
    out[..., -1] = values[..., -6:] @ _D2_EDGE0[::-1]
    out[..., -2] = values[..., -6:] @ _D2_EDGE1[::-1]
    return out / (h * h)


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

    def project(self, values: np.ndarray) -> np.ndarray:
        """(nt, ns) pointwise values -> (nmodes, nt) coefficients."""
        return (self.basis * self.w) @ values.T / self.norms[:, None]


def _field_values(field: CylinderField, proj: ZonalProjector) -> np.ndarray:
    basis = proj.basis if field.modes == proj.modes else np.array(
        [spheres.eval_zonal(m, proj.s) for m in field.modes])
    return field.coeffs.T @ basis


# ---------------------------------------------------------------------------
# nonlinear residual operators
# ---------------------------------------------------------------------------

def _residual(field: CylinderField, k_eval) -> CylinderField:
    params = field.params
    if params is None:
        raise ValueError("field carries no problem parameters")
    proj = ZonalProjector(params.n, field.modes)
    vals = _field_values(field, proj)
    if np.min(vals) <= 0:
        raise PositivityError("field must be strictly positive on the grid "
                              "(fractional power undefined)")
    nonlin = k_eval(field.t, proj.s) * vals ** params.e
    nl_coeffs = proj.project(nonlin)
    lin = np.empty_like(field.coeffs)
    h = float(field.t[1] - field.t[0])
    for i, m in enumerate(field.modes):
        lam = float(m.eigenvalue)
        lin[i] = (-second_derivative(field.coeffs[i], h)
                  + (lam + params.q) * field.coeffs[i])
    out = lin - nl_coeffs
    return CylinderField(t=field.t, modes=field.modes, coeffs=out,
                         params=params,
                         meta={"one_sided_rows": [0, 1, field.t.size - 2,
                                                  field.t.size - 1]})


def residual_M(field: CylinderField, profile: ForcingProfile) -> CylinderField:
    """Conformal residual -f_tt - Delta_theta f + q f - K f^{(n+2)/(n-2)}."""
    if field.params.kind != "conformal":
        raise ValueError("residual_M requires conformal parameters")
    n = field.params.n
    return _residual(field, lambda t, s: profile.evaluate(t, s, n))


def residual_N(field: CylinderField) -> CylinderField:
    """CKN residual -f_tt - Delta_theta f + q f - f^{p-1}."""
    if field.params.kind != "ckn":
        raise ValueError("residual_N requires CKN parameters")
    return _residual(field, lambda t, s: 1.0)


def _orbit_samples(orbit: FowlerOrbit, tgrid) -> np.ndarray:
    """xi on tgrid, read from a window with exactly that grid if there is one."""
    for win in orbit._windows.values():
        if np.array_equal(win.t, tgrid):
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
# per-interval quadrature and directional cumulatives
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


def _interval_increments(y: np.ndarray, h: float) -> np.ndarray:
    """Integral over each grid interval via local quintic interpolation."""
    n = y.size
    inc = np.empty(n - 1)
    # the window starting at j - 2 integrates interval j, j = 2 .. n - 4
    inc[2:n - 3] = np.correlate(y, _INT_CENTER, "valid")
    inc[0] = _INT_LEFT0 @ y[:6]
    inc[1] = _INT_LEFT1 @ y[:6]
    inc[n - 3] = _INT_RIGHT1 @ y[-6:]
    inc[n - 2] = _INT_RIGHT0 @ y[-6:]
    return inc * h


def _cum_from_left(y: np.ndarray, h: float) -> np.ndarray:
    inc = _interval_increments(y, h)
    return np.concatenate([[0.0], np.cumsum(inc)])


def _cum_from_right(y: np.ndarray, h: float) -> np.ndarray:
    inc = _interval_increments(y, h)
    return np.concatenate([np.cumsum(inc[::-1])[::-1], [0.0]])


def _partial_interval_rule(num: int, start: float):
    """Rule for int_a^{t_k} y on a uniform grid of `num` points, where
    a = t_0 + start h and t_k is the first grid point above a.

    Returns (k, first, w) with the integral h * (w @ y[first:first + 6]); the
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
    """Kernel data of one mode operator on a window, reused across solves."""

    def __init__(self, orbit: FowlerOrbit, lam: float, tgrid):
        self.orbit = orbit
        self.lam = float(lam)
        self.t = np.asarray(tgrid, dtype=float)
        _check_uniform(self.t)
        self.h = float(self.t[1] - self.t[0])
        if orbit.period > self.t[-1] - self.t[0]:
            raise ValueError(
                f"window [{float(self.t[0])!r}, {float(self.t[-1])!r}] must cover "
                f"at least one orbit period (n = {orbit.params.n}, eps = "
                f"{orbit.epsilon!r}, T = {orbit.period!r})")
        self.last_period_rule = _partial_interval_rule(
            self.t.size, (self.t[-1] - orbit.period - self.t[0]) / self.h)
        self.datum = floquet.spectrum(orbit, [self.lam], with_factors=True)[self.lam]
        if self.datum.type == floquet.TYPE_III:
            self._setup_hyperbolic()
        else:
            self._setup_fundamental_pair()

    def _setup_hyperbolic(self):
        d = self.datum
        t, t0 = self.t, self.t[0]
        self.sigma = d.sigma
        qp, qm = d.q_plus(t), d.q_minus(t)
        # the kernel pair psi- = q+ e^{-sigma(t-t0)}, psi+ = q- e^{+sigma(t-t0)}
        # and its Wronskian at t0, the one place derivatives are needed
        self.psi_m = qp * np.exp(-self.sigma * (t - t0))
        self.psi_p = qm * np.exp(self.sigma * (t - t0))
        qp_d, qm_d = d.q_plus.derivative(t0), d.q_minus.derivative(t0)
        self.wronskian = float(qp[0] * (qm_d + self.sigma * qm[0])
                               - (qp_d - self.sigma * qp[0]) * qm[0])
        if abs(self.wronskian) < 1e-10:
            raise IntegrationError(
                f"degenerate Floquet kernel pair (n = {self.orbit.params.n}, "
                f"eps = {self.orbit.epsilon!r}, lambda = {self.lam!r}, "
                f"wronskian = {self.wronskian!r})")

    def _setup_fundamental_pair(self):
        t, t0 = self.t, self.t[0]
        orbit, period = self.orbit, self.orbit.period
        y0 = [1.0, 0.0, 0.0, 1.0,
              float(orbit.value(t0)), float(orbit.derivative(t0))]
        sol = solve_ivp(floquet.variational_rhs, (t0, t0 + period), y0,
                        args=(self.lam, orbit.params), method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        if not sol.success:
            raise IntegrationError(
                f"fundamental pair integration failed (n = {orbit.params.n}, "
                f"eps = {orbit.epsilon!r}, lambda = {self.lam!r})")
        # quasi-periodicity: (u1, u2)(s + P) = (u1, u2)(s) M, M the pair's
        # state at t0 + P, so period k of the window is the first times M^k
        self.shift = sol.y[:4, -1].reshape(2, 2)
        k, s = np.divmod(t - t0, period)
        first = DenseSolution(sol.sol)(t0 + s)[0:2]
        self.u = np.empty_like(first)
        power = np.eye(2)
        for j in range(int(k[-1]) + 1):
            sel = k == j
            self.u[:, sel] = power.T @ first[:, sel]
            power = power @ self.shift
        self.wronskian = 1.0

    # -- tail extrapolation -------------------------------------------------

    def _last_period(self, integrand, cum):
        """int_{T-P}^{T} of the integrand, from its from-the-right sums."""
        k, first, w = self.last_period_rule
        return cum[k] + self.h * (w @ integrand[first:first + 6])

    def _geometric_tail(self, integrand, cum, rate, nu):
        """Missing int_T^inf of an integrand that scales by e^{(rate - nu) P}
        per period, via the last period (a ratio below 1: `solve` checks nu)."""
        r = math.exp((rate - nu) * self.orbit.period)
        return r * self._last_period(integrand, cum) / (1.0 - r)

    def solve(self, rhs, nu: float, return_info: bool = False):
        """phi with L phi = rhs, decaying at rate nu, on the window grid."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != self.t.shape:
            raise ValueError("rhs must live on the context grid")
        if not nu > 0.0:
            raise DecayRateError(
                f"decay rate must be positive (n = {self.orbit.params.n}, "
                f"eps = {self.orbit.epsilon!r}, lambda = {self.lam!r}, "
                f"nu = {nu!r})")
        period = self.orbit.period
        if self.datum.type == floquet.TYPE_III:
            sigma = self.sigma
            if abs(sigma - nu) < RESONANCE_GAP:
                raise ResonanceError(
                    f"decay rate {nu!r} within {RESONANCE_GAP:g} of the mode "
                    f"exponent {sigma!r}; use the t-power (resonant) path")
            psi_m, psi_p = self.psi_m, self.psi_p
            g_minus = psi_m * rhs / self.wronskian
            g_plus = psi_p * rhs / self.wronskian
            cum_m = _cum_from_right(g_minus, self.h)
            tail_m = self._geometric_tail(g_minus, cum_m, -sigma, nu)
            if sigma > nu:
                phi = (psi_m * _cum_from_left(g_plus, self.h)
                       + psi_p * (cum_m + tail_m))
            else:
                cum_p = _cum_from_right(g_plus, self.h)
                tail_p = self._geometric_tail(g_plus, cum_p, sigma, nu)
                phi = psi_p * (cum_m + tail_m) - psi_m * (cum_p + tail_p)
        else:
            g1 = self.u[0] * rhs
            g2 = self.u[1] * rhs
            cum1 = _cum_from_right(g1, self.h)
            cum2 = _cum_from_right(g2, self.h)
            j = np.array([self._last_period(g1, cum1),
                          self._last_period(g2, cum2)])
            r = math.exp(-nu * period)
            tails = np.linalg.solve(np.eye(2) - r * self.shift.T,
                                    r * self.shift.T @ j)
            phi = self.u[1] * (cum1 + tails[0]) - self.u[0] * (cum2 + tails[1])
        if not return_info:
            return phi
        wn = np.exp(nu * self.t)
        rhs_norm = float(np.max(wn * np.abs(rhs)))
        phi_norm = float(np.max(wn * np.abs(phi)))
        info = {"bound_constant": phi_norm / rhs_norm if rhs_norm > 0 else 0.0,
                "type": self.datum.type, "sigma": self.datum.sigma}
        return phi, info


class _Window:
    """An orbit on a window: read-only grid and samples, and its contexts."""

    def __init__(self, orbit: FowlerOrbit, tgrid):
        self.t = np.array(tgrid, dtype=float)
        self.xi = orbit.value(self.t)
        self.t.flags.writeable = self.xi.flags.writeable = False
        self.contexts = {}


def _window(orbit: FowlerOrbit, tgrid) -> _Window:
    """The orbit's state on a uniform window, set up on first use."""
    _check_uniform(tgrid)
    # the key holds the endpoints and size only, which fix a uniform grid
    key = float(tgrid[0]), float(tgrid[-1]), len(tgrid)
    if key not in orbit._windows:
        orbit._windows[key] = _Window(orbit, tgrid)
    return orbit._windows[key]


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

    def to_dict(self):
        return {k: getattr(self, k) for k in
                ("slope", "log_corrected", "r2", "slope_plain", "slope_log",
                 "r2_plain", "r2_log", "n_points", "window", "warning")}


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
    mask = np.isfinite(vals) & (vals > 0) & (t > 0)  # t-prefactor model needs t > 0
    if t_window is not None:
        mask &= (t >= t_window[0]) & (t <= t_window[1])
    warning = None
    if np.any(mask & (vals <= floor)):
        warning = f"window shrunk: values at/below the {floor:g} floor dropped"
        mask &= vals > floor
    if mask.sum() < 4:
        raise ValueError("not enough usable points for a decay fit")
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


def period_aligned_window(field, orbit, lead: float = 0.5,
                          trail: float = 1.5):
    """Fit window spanning a whole number of orbit periods, so the periodic
    coefficient modulation does not bias the slope."""
    lo = field.t[0] + lead
    avail = field.t[-1] - trail - lo
    k = max(1, int(math.floor(avail / orbit.period)))
    return lo, lo + k * orbit.period


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

    def to_dict(self):
        return {"norms": self.norms, "factors": self.factors, "t0": self.t0,
                "nu": self.nu, "converged": self.converged,
                "iterations": self.iterations, "escalations": self.escalations}


def _power_remainder(exponent: float, base, delta):
    """(base + delta)^e - base^e - e base^{e-1} delta without cancellation.

    For |delta/base| below 1e-3 the quadratic Taylor remainder is evaluated
    by its series, keeping the result accurate relative to its own (tiny)
    size; the direct form would leave absolute roundoff of the O(1) terms.
    """
    x = delta / base
    c2 = exponent * (exponent - 1.0) / 2.0
    out = (base**exponent * c2 * x * x
           * (1.0 + (exponent - 2.0) * x / 3.0
              + (exponent - 2.0) * (exponent - 3.0) * x * x / 12.0))
    # the direct form is evaluated only on the points that use it
    far = ~(np.abs(x) < 1e-3)
    if far.any():
        b = np.broadcast_to(base, x.shape)[far]
        d = np.broadcast_to(delta, x.shape)[far]
        out[far] = (b + d) ** exponent - b**exponent - exponent * b ** (
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
    """The Floquet exponent of each harmonic degree 1..top, in order."""
    data = floquet.spectrum(orbit, [spheres.eigenvalue(k, orbit.params.n)
                                    for k in range(1, top + 1)]).values()
    if any(d.type != floquet.TYPE_III for d in data):
        raise floquet.FloquetStructureError(
            f"a mode of degree 1..{top} is not hyperbolic (n = "
            f"{orbit.params.n}, eps = {orbit.epsilon!r})")
    return [d.sigma for d in data]


def _iterate(orbit, tgrid, modes, rhs_fn, nu, tol, max_iter):
    """Generic fixed-point loop phi <- L^{-1} rhs(phi), mode by mode.

    Stops on a relative update below tol, or once updates stagnate at the
    weighted-norm roundoff floor (the e^{nu t} weight amplifies right-end
    rounding, so arbitrarily small tolerances are not reachable); reports
    non-contraction only while updates are still far above that floor.
    """
    contexts = [_context_cache(orbit, float(m.eigenvalue), tgrid) for m in modes]
    phi = np.zeros((len(modes), len(tgrid)))
    wn = np.exp(nu * tgrid)

    def norm(arr):
        return float(np.max(wn * np.sum(np.abs(arr), axis=0)))

    norms, factors, diffs = [], [], []
    converged = False
    for it in range(max_iter):
        rhs_coeffs = rhs_fn(phi)
        new = np.array([ctx.solve(rhs_coeffs[i], nu)
                        for i, ctx in enumerate(contexts)])
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
               window: float, h: float, tol: float, max_iter: int):
    """The fixed-point construction near an orbit shared by both problems.

    `build(tgrid, xi_t, proj)` supplies the base coefficients on the window
    and the rhs map of the iteration phi <- L^{-1} rhs(phi); xi_t are the
    orbit's read-only samples on the window.  Whenever the iteration
    fails to converge within `max_iter` sweeps (a measured factor >= 1 or the
    sweep cap) the window start t0 doubles, at most four times.  Returns the
    base field, the field base + phi and the iteration trace.
    """
    params = orbit.params
    # Floquet data with kernel factors for every mode in one batch; each
    # window's contexts then read them from `floquet.spectrum`
    floquet.spectrum(orbit, [m.eigenvalue for m in modes], with_factors=True)
    proj = ZonalProjector(params.n, modes)
    escalations = 0
    while True:
        tgrid = make_grid(t0, window, h)
        base, rhs_fn = build(tgrid, _window(orbit, tgrid).xi, proj)
        phi, norms, factors, converged, iters = _iterate(
            orbit, tgrid, modes, rhs_fn, nu, tol, max_iter)
        if converged:
            break
        if escalations >= 4:
            raise ConstructionError(
                f"{params.kind} construction (n = {params.n}, eps = "
                f"{orbit.epsilon!r}) did not converge in max_iter = "
                f"{max_iter} sweeps at t0 = {t0!r} after {escalations} window shifts; "
                f"measured factors {factors[-3:]}")
        t0 *= 2.0
        escalations += 1
    trace = IterationTrace(norms=norms, factors=factors, t0=t0, nu=nu,
                           converged=converged, iterations=iters,
                           escalations=escalations)
    return (CylinderField(t=tgrid, modes=modes, coeffs=base, params=params),
            CylinderField(t=tgrid, modes=modes, coeffs=base + phi,
                          params=params),
            trace)


def contraction_construct(orbit: FowlerOrbit, profile: ForcingProfile,
                          t0: float = DEFAULT_T0, window: float = DEFAULT_WINDOW,
                          max_degree: int = 2, tol: float = 1e-10,
                          max_iter: int = 60, h: float = DEFAULT_H):
    """Fixed-point construction of a solution v = xi + phi of the conformal
    cylinder equation with curvature profile K.

    Iterates phi <- L^{-1}[(K - K0)(xi + phi)^e + K0((xi + phi)^e - xi^e
    - e xi^{e-1} phi)] in the discrete weighted norm; whenever the iteration
    fails to converge within `max_iter` sweeps the window start t0 doubles
    (up to 4 times) before giving up.
    """
    params = orbit.params
    if params.kind != "conformal":
        raise ValueError("contraction_construct requires conformal provenance")
    n, e, k0 = params.n, params.e, params.c
    modes = tuple(spheres.HarmonicMode(k, n) for k in range(max_degree + 1))
    if profile.is_flat:
        nu = 2.0  # arbitrary finite rate; the rhs vanishes and phi = 0
    else:
        sigmas = _degree_exponents(orbit, max_degree + 1)
        nu = _pick_off_resonant_rate(profile.min_rate, sigmas)

    def build(tgrid, xi_t, proj):
        profile.evaluate(tgrid, proj.s, n)  # positivity check of K itself
        k_dev = profile.deviation(tgrid, proj.s, n)

        def rhs_fn(phi_coeffs):
            # (K - K0)(xi + phi)^e + K0 [(xi + phi)^e - xi^e - e xi^{e-1} phi],
            # each group formed without cancellation so the projected rhs is
            # accurate relative to its own exponentially small size
            phi_vals = phi_coeffs.T @ proj.basis
            vals = xi_t[:, None] + phi_vals
            if np.min(vals) <= 0:
                raise PositivityError("iterate lost positivity")
            pointwise = (k_dev * vals**e
                         + k0 * _power_remainder(e, xi_t[:, None], phi_vals))
            return proj.project(pointwise)

        base = np.zeros((len(modes), tgrid.size))
        base[0] = xi_t
        return base, rhs_fn

    _, v, trace = _construct(orbit, modes, nu, build, t0, window, h, tol,
                             max_iter)
    if np.min(v.evaluate(np.linspace(-1, 1, 101))) <= 0:
        raise PositivityError("constructed field is not positive")
    return v, trace


def ckn_construct(orbit: FowlerOrbit, nu: float, amplitude: float = 0.05,
                  degree: int = 1, t0: float = DEFAULT_T0,
                  window: float = DEFAULT_WINDOW, max_degree: int = 2,
                  tol: float = 1e-10, max_iter: int = 60, h: float = DEFAULT_H):
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
    n, p = params.n, params.p
    sigmas = _degree_exponents(orbit, max_degree + 3)
    if nu <= sigmas[0]:
        raise ValueError(f"nu must exceed sigma_1 = {sigmas[0]:.6g}")
    iset = index_set.generate(sigmas, max(nu + 1.0, sigmas[0] * 2 + 0.5),
                              tol=RESONANCE_GAP, degrees=range(1, max_degree + 4))
    if np.any(np.abs(iset.values - nu) <= RESONANCE_GAP * 100):
        raise ResonanceError(f"nu = {nu!r} lies in the exponent index set")

    modes = tuple(spheres.HarmonicMode(k, n) for k in range(max_degree + 1))
    lam_pert = float(spheres.eigenvalue(degree, n))

    def build(tgrid, zeta_t, proj):
        z_pert = spheres.eval_zonal(spheres.HarmonicMode(degree, n), proj.s)
        pert = amplitude * np.outer(np.exp(-nu * tgrid), z_pert)
        what_vals = zeta_t[:, None] + pert
        if np.min(what_vals) <= 0:
            raise PositivityError("approximate solution w_hat not positive")
        # N(w_hat) analytically: the zeta part solves the ODE and the
        # perturbation is an explicit exponential times a harmonic, so
        #   N(w_hat) = (lam + q - nu^2) pert - [w_hat^{p-1} - zeta^{p-1}],
        # with the power difference taken through expm1 for stability
        rel = pert / zeta_t[:, None]
        power_jump = (zeta_t ** (p - 1.0))[:, None] * np.expm1(
            (p - 1.0) * np.log1p(rel))
        n_what = (lam_pert + params.q - nu * nu) * pert - power_jump
        # (p-1)(w_hat^{p-2} - zeta^{p-2}), the linearization-offset factor
        lin_offset = (p - 1.0) * (zeta_t ** (p - 2.0))[:, None] * np.expm1(
            (p - 2.0) * np.log1p(rel))

        def rhs_fn(phi_coeffs):
            # -N(w_hat) + (w_hat+phi)^{p-1} - w_hat^{p-1} - (p-1) zeta^{p-2} phi
            phi_vals = phi_coeffs.T @ proj.basis
            wv = what_vals + phi_vals
            if np.min(wv) <= 0:
                raise PositivityError("iterate lost positivity")
            pointwise = (-n_what
                         + _power_remainder(p - 1.0, what_vals, phi_vals)
                         + lin_offset * phi_vals)
            return proj.project(pointwise)

        what_coeffs = np.zeros((len(modes), tgrid.size))
        what_coeffs[0] = zeta_t
        what_coeffs[degree] += amplitude * np.exp(-nu * tgrid)
        return what_coeffs, rhs_fn

    w_hat, w, trace = _construct(orbit, modes, nu, build, t0, window, h, tol,
                                 max_iter)
    return w, w_hat, trace


def fit_kernel_amplitude(field_diff: CylinderField, orbit: FowlerOrbit,
                         tail_periods: float = 2.0) -> float:
    """Amplitude of the first-order kernel term in a difference field.

    The degree-1 coefficient is regressed on e^{-t}((n-2)/2 xi - xi') over
    the trailing `tail_periods` orbit periods only: the kernel branch decays
    slowest, so genuine kernel content dominates the tail while any
    faster-decaying response contributes an exponentially small bias there.
    """
    n = orbit.params.n
    t = field_diff.t
    mask = t >= t[-1] - tail_periods * orbit.period
    c1 = field_diff.mode_coefficient(1)[mask]
    basis = np.exp(-t[mask]) * ((n - 2) / 2.0 * orbit.value(t[mask])
                                - orbit.derivative(t[mask]))
    denom = float(basis @ basis)
    return float(basis @ c1) / denom if denom > 0 else 0.0
