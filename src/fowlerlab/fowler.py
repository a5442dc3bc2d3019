"""Positive periodic solutions of the autonomous ODE -xi'' + q xi = c xi^e.

Two parameterizations are supported:

* conformal:  q = (n-2)^2/4,  e = (n+2)/(n-2),  c = K0 > 0
* CKN:        q = (n-2a-2)^2/4,  e = p - 1,  c = 1, with
              p = 2n / (n - 2 + 2(b - a)),  0 <= a < (n-2)/2,  a <= b < a+1

The phase plane has a center at the constant solution xi* = (q/c)^{1/(e-1)};
orbits started at (eps, 0) with 0 < eps < xi* are even, periodic, and conserve
the Hamiltonian H = xi'^2/2 - (q/2) xi^2 + (c/(e+1)) xi^{e+1}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.integrate import DOP853, quad, solve_ivp
from scipy.integrate._ivp.dop853_coefficients import INTERPOLATOR_POWER
from scipy.integrate._ivp.rk import (MAX_FACTOR, MIN_FACTOR, SAFETY,
                                     Dop853DenseOutput)
from scipy.optimize import brentq

DEGENERACY_GAP = 1e-6  # reject eps closer to xi* than this (relative)
QUADRATURE_TOL = 1e-9  # largest accepted relative error estimate of a period
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # where exp overflows
ORBIT_SAMPLES = 2048  # uniform samples over [0, T], both ends included


class IntegrationError(RuntimeError):
    """Raised when the ODE integrator fails; carries the last accepted step."""


def _check_dimension(n, problem: str) -> None:
    if not float(n).is_integer():
        raise ValueError(f"{problem} problem requires an integer dimension, "
                         f"got n = {n!r}")
    if n < 3:
        raise ValueError(f"{problem} problem requires n >= 3")


@dataclass(frozen=True)
class FowlerParams:
    """Coefficients of -xi'' + q xi = c xi^e plus their provenance."""

    q: float
    c: float
    e: float
    kind: str  # "conformal" | "ckn"
    n: int
    k0: float | None = None
    a: float | None = None
    b: float | None = None
    p: float | None = None

    @staticmethod
    def conformal(n: int, k0: float = 1.0) -> "FowlerParams":
        _check_dimension(n, "conformal")
        if not 0.0 < k0 < math.inf:
            raise ValueError(f"K(0) must be positive and finite, got k0 = {k0!r}")
        q = (n - 2) ** 2 / 4.0
        e = (n + 2) / (n - 2)
        return FowlerParams(q=q, c=float(k0), e=e, kind="conformal", n=int(n), k0=float(k0))

    @staticmethod
    def ckn(n: int, a: float, b: float) -> "FowlerParams":
        _check_dimension(n, "CKN")
        if not (0 <= a < (n - 2) / 2):
            raise ValueError(f"need 0 <= a < (n-2)/2, got a={a}")
        if not (a <= b < a + 1):
            raise ValueError(f"need a <= b < a+1, got a={a}, b={b}")
        p = 2.0 * n / (n - 2 + 2 * (b - a))
        q = (n - 2 * a - 2) ** 2 / 4.0
        return FowlerParams(q=q, c=1.0, e=p - 1.0, kind="ckn", n=int(n),
                            a=float(a), b=float(b), p=p)

    def describe(self) -> dict:
        return {name: value for name, value in vars(self).items() if value is not None}

    def named(self, *pairs) -> str:
        """The problem, "<kind> problem, n = ..., k0 = ..." (CKN: a and b),
        then "name = repr(value)" per pair: how every refusal names it."""
        problem = [(name, getattr(self, name)) for name in ("n", "k0", "a", "b")
                   if getattr(self, name) is not None]
        return ", ".join([f"{self.kind} problem"] + [
            f"{name} = {value!r}" for name, value in problem + list(pairs)])


def constant_solution(params: FowlerParams) -> float:
    """The unique positive constant solving q xi = c xi^e.  A problem whose
    xi* or level c xi*^(e+1) overflows or falls below the smallest normal
    float has no orbit to shoot or time, and raises ValueError naming it."""
    xistar = level = math.inf
    try:  # a float power that overflows raises
        xistar = (params.q / params.c) ** (1.0 / (params.e - 1.0))
        level = params.c * xistar ** (params.e + 1.0)
    except OverflowError:
        pass
    if not all(sys.float_info.min <= x < math.inf for x in (xistar, level)):
        named = params.named(("xi*", xistar), ("c xi*^(e+1)", level))
        raise ValueError(f"the problem's scale leaves the normal float range ({named})")
    return xistar


def hamiltonian(xi, xi_prime, params: FowlerParams):
    """H = xi'^2/2 - (q/2) xi^2 + (c/(e+1)) xi^{e+1} (conserved along orbits)."""
    xi = np.asarray(xi, dtype=float)
    xi_prime = np.asarray(xi_prime, dtype=float)
    val = 0.5 * xi_prime**2 - 0.5 * params.q * xi**2 \
        + params.c / (params.e + 1.0) * xi ** (params.e + 1.0)
    return float(val) if val.ndim == 0 else val


def _potential(s, params):
    # G(s) with H(xi, xi') = xi'^2/2 + G(xi)
    return -0.5 * params.q * s**2 + params.c / (params.e + 1.0) * s ** (params.e + 1.0)


def small_oscillation_period(params: FowlerParams) -> float:
    """Period of linearized oscillations about xi*: 2 pi / sqrt(q (e-1))."""
    return 2.0 * math.pi / math.sqrt(params.q * (params.e - 1.0))


def upper_turning_bound(params: FowlerParams) -> float:
    """Root of G(s) = 0 above xi*; every orbit maximum stays strictly below it."""
    return ((params.e + 1.0) * params.q / (2.0 * params.c)) ** (1.0 / (params.e - 1.0))


def _check_epsilon(epsilon: float, params: FowlerParams) -> float:
    """xi*, once eps is checked to lie in (0, xi*), where the periodic orbits
    with minimum eps are, and at least DEGENERACY_GAP * xi* below xi*."""
    xistar = constant_solution(params)
    named = f"({params.named(('eps', epsilon), ('xi*', xistar))})"
    if not 0 < epsilon < xistar:
        bound = "be positive" if not epsilon > 0 else "lie below xi*"
        raise ValueError(
            f"no periodic orbit with minimum eps: eps must {bound} {named}")
    if xistar - epsilon < DEGENERACY_GAP * xistar:
        raise ValueError(
            f"eps within {DEGENERACY_GAP:g}*xi* of the constant solution: "
            f"orbit is numerically degenerate {named}")
    return xistar


def max_value(epsilon: float, params: FowlerParams) -> float:
    """The orbit maximum: unique root s > xi* of G(s) = G(eps).

    Where G(eps) lies within rounding of G's value at the upper turning
    bound (0 in exact arithmetic), the maximum is that bound to rounding
    and is returned as it is."""
    xistar = _check_epsilon(epsilon, params)
    h0 = _potential(epsilon, params)
    hi = upper_turning_bound(params)
    if _potential(hi, params) <= h0:
        return hi
    return brentq(lambda s: _potential(s, params) - h0, xistar, hi,
                  xtol=1e-13, rtol=8.9e-16)


def _expm1_log1p_ratio(y: float, scale: float) -> float:
    """(exp(scale*log1p(y)) - 1) / y for a scalar y, without cancellation.

    QUADPACK calls the integrand one point at a time, so the series branches
    are chosen in Python.  log1p and expm1 stay numpy's: `math`'s differ from
    numpy's SIMD loops in the last bit on some arguments.
    """
    log1p_y = np.log1p(y)
    x = scale * log1p_y
    if abs(y) < 1e-8:
        log_ratio = 1.0 - y / 2.0 + y * y / 3.0
    else:
        log_ratio = log1p_y / y
    if abs(x) < 1e-8:
        exp_ratio = 1.0 + x / 2.0 + x * x / 6.0
    else:
        exp_ratio = np.expm1(x) / x
    return scale * log_ratio * exp_ratio


def period_quadrature(epsilon: float, params: FowlerParams) -> float:
    """Orbit period via the energy integral T = 2 int_eps^max ds / sqrt(2(H - G(s))).

    Both endpoints are simple turning points; substituting s = turn + sign u^2
    (eps, +1 at the minimum and smax, -1 at the maximum) removes the
    inverse-square-root singularities, and the level difference
    G(turn) - G(s) is expanded through expm1/log1p so the integrand stays
    smooth down to u = 0 even for orbits close to the constant solution.
    Where (1 + u^2/eps)^(e+1) overflows, on slow orbits, the difference is
    formed directly.  A period whose QUADPACK error estimate exceeds
    QUADRATURE_TOL of it raises `IntegrationError` naming the orbit.
    """
    xistar = _check_epsilon(epsilon, params)
    smax = max_value(epsilon, params)
    q, c, e = params.q, params.c, params.e

    def integrand(turn, sign):
        def f(u):
            # 2 sign (G(turn) - G(turn + sign u^2)) / u^2, exact at u = 0
            u2 = u * u
            s = turn + sign * u2
            y = sign * u2 / turn
            if (e + 1.0) * np.log1p(y) > _LOG_FLOAT_MAX:
                # (1 + y)^(e+1) overflows; y is past 1e51 there (e + 1 <= 6),
                # so the direct difference has no cancellation
                val = q * (s + turn) - (2.0 * c / (e + 1.0)) * (
                    (s ** (e + 1.0) - turn ** (e + 1.0)) / u2)
            else:
                ratio = _expm1_log1p_ratio(y, e + 1.0)
                val = q * (s + turn) - (2.0 * c / (e + 1.0)) * turn**e * ratio
            return 2.0 / np.sqrt(sign * val)
        return f

    # full_output returns the error estimates without an IntegrationWarning
    (i_left, err_left), (i_right, err_right) = (
        quad(integrand(turn, sign), 0.0, math.sqrt(width), epsabs=1e-13,
             epsrel=1e-12, limit=200, full_output=1)[:2]
        for turn, sign, width in ((epsilon, 1.0, xistar - epsilon),
                                  (smax, -1.0, smax - xistar)))
    period, error = 2.0 * (i_left + i_right), 2.0 * (err_left + err_right)
    if not error <= QUADRATURE_TOL * period:  # a NaN fails too
        raise IntegrationError(
            f"period quadrature unresolved: error estimate {error:.3g} above "
            f"{QUADRATURE_TOL:g} of the period {period!r} "
            f"({params.named(('eps', epsilon))})")
    return period


class DenseSolution:
    """The dense output of an ascending DOP853 solve, evaluated in one pass.

    scipy's `OdeSolution` loops in Python over the segments that a set of
    points touches.  Here every segment's start, step, initial state and
    reversed interpolation coefficients are stacked once (states x segments),
    and any array of t is evaluated with whole-array operations: the segment
    by scipy's rule (the lower one at a knot, the end segments beyond the
    ends), then scipy's own alternating product x(1 - x)x... from zero.  The
    values are bitwise equal to `sol.sol(t)`, scalars included.  With `rows`,
    integer state indices broadcast against the points, only those states
    are formed: row r of the answer holds state rows[r, p] at point p.
    """

    def __init__(self, sol):
        if not sol.ascending:
            raise ValueError("DenseSolution needs an ascending solution")
        segments = sol.interpolants
        self.knots = sol.ts
        self.t_old = np.array([s.t_old for s in segments])
        self.h = np.array([s.h for s in segments])
        self.y_old = np.stack([s.y_old for s in segments], axis=1)
        self.coeffs = np.stack([s.F[::-1] for s in segments], axis=2)

    def __call__(self, t, rows=None):
        """States at t: shape (states,) for a scalar, (states, points) else."""
        t = np.asarray(t)
        seg = np.clip(np.searchsorted(self.knots, t, side="left") - 1,
                      0, self.h.size - 1)
        x = (t - self.t_old[seg]) / self.h[seg]
        rows = slice(None) if rows is None else rows
        coeffs = self.coeffs[:, rows, seg]
        y = np.zeros(coeffs.shape[1:])
        for i, f in enumerate(coeffs):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old[rows, seg]
        return y


class BareDOP853(DOP853):
    """scipy's DOP853 (Hairer, Norsett & Wanner) without its per-evaluation
    wrappers, for `solve_ivp(..., method=BareDOP853)`.

    The right-hand side is the callable `solve_ivp` hands over, called as it
    is on a real state, not vectorized (it must return one value per state),
    and `nfev` is counted here: 12 per attempted step, 3 per dense output.
    The stage views K[:s].T and the coefficient rows A[s, :s] are formed
    once per solver.  Every float operation is scipy's, in scipy's order:
    `t`, `y`, `nfev`, events and dense output are bitwise those of
    `method="DOP853"`.
    """

    def __init__(self, fun, t0, y0, t_bound, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        if self.vectorized or np.iscomplexobj(self.y):
            raise ValueError("BareDOP853 takes a real state and a "
                             "non-vectorized right-hand side")
        self._rhs = fun
        k = self.K_extended
        self._stages = [(s, k[:s].T, a[:s], c) for s, (a, c) in enumerate(
            zip(self.A[1:], self.C[1:]), start=1)]
        self._extra = [(s, k[:s].T, a[:s], c) for s, (a, c) in enumerate(
            zip(self.A_EXTRA, self.C_EXTRA), start=self.n_stages + 1)]
        self._k_t = self.K.T
        self._k_b = self.K[:-1].T

    def _error_norm(self, h, scale):
        # np.linalg.norm(x) is sqrt(x.dot(x)) for a real vector
        err5 = np.dot(self._k_t, self.E5) / scale
        err3 = np.dot(self._k_t, self.E3) / scale
        err5_norm_2 = np.sqrt(err5.dot(err5)) ** 2
        err3_norm_2 = np.sqrt(err3.dot(err3)) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))

    def _step_impl(self):
        t, y, fun, k = self.t, self.y, self._rhs, self.K
        max_step, rtol, atol = self.max_step, self.rtol, self.atol
        min_step = 10 * abs(math.nextafter(t, self.direction * math.inf) - t)
        if self.h_abs > max_step:
            h_abs = max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        step_accepted = step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            h = h_abs * self.direction
            t_new = t + h
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)

            k[0] = self.f
            for s, k_s, a, c in self._stages:
                k[s] = fun(t + c * h, y + np.dot(k_s, a) * h)
            y_new = y + h * np.dot(self._k_b, self.B)
            k[-1] = fun(t + h, y_new)
            self.nfev += self.n_stages
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = self._error_norm(h, scale)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** self.error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR,
                             SAFETY * error_norm ** self.error_exponent)
                step_rejected = True

        self.h_previous = h
        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.f = k[-1].copy()
        return True, None

    def _dense_output_impl(self):
        k, h = self.K_extended, self.h_previous
        t_old, y_old = self.t_old, self.y_old
        for s, k_s, a, c in self._extra:
            k[s] = self._rhs(t_old + c * h, y_old + np.dot(k_s, a) * h)
        self.nfev += len(self._extra)
        f_old = k[0]
        delta_y = self.y - y_old
        coeffs = np.empty((INTERPOLATOR_POWER, self.n), dtype=y_old.dtype)
        coeffs[0] = delta_y
        coeffs[1] = h * f_old - delta_y
        coeffs[2] = 2 * delta_y - h * (self.f + f_old)
        coeffs[3:] = h * np.dot(self.D, k)
        return Dop853DenseOutput(t_old, self.t, y_old, coeffs)


@dataclass(frozen=True)
class FowlerOrbit:
    """One period of a positive Fowler solution, from the minimum at t = 0.

    `value` and `derivative` fold t into [0, T/2] and evaluate the shooting
    solve's dense output there through a `DenseSolution`, forming only the
    state row they return.
    """

    params: FowlerParams
    epsilon: float
    period: float
    t: np.ndarray
    xi: np.ndarray
    xi_prime: np.ndarray
    energy: float
    is_constant: bool
    energy_drift: float
    # the shooting solve's right-hand-side evaluations and accepted steps
    rhs_evals: int = field(default=0, compare=False)
    steps: int = field(default=0, compare=False)
    _dense: DenseSolution | None = field(default=None, repr=False, compare=False)
    # per eigenvalue, kept by floquet.spectrum; per window, kept by cylinder
    _floquet: dict = field(default_factory=dict, repr=False, compare=False)
    _windows: dict = field(default_factory=dict, repr=False, compare=False)

    def named(self, *pairs) -> str:
        """`FowlerParams.named` with the orbit's eps (xi* if constant) first."""
        return self.params.named(("xi*" if self.is_constant else "eps",
                                  self.epsilon), *pairs)

    def _fold(self, t):
        # the interpolant covers [0, T/2]; xi is even about 0 and T/2
        tm = np.mod(t, self.period)
        return np.minimum(tm, self.period - tm), tm > self.period - tm

    def value(self, t):
        """xi at arbitrary t (periodic extension)."""
        if self.is_constant:
            return np.full_like(np.asarray(t, dtype=float), self.epsilon)
        half, _ = self._fold(t)
        return self._dense(half, 0)[()]  # a numpy scalar for a scalar t

    def derivative(self, t):
        """xi' at arbitrary t (periodic extension)."""
        if self.is_constant:
            return np.zeros_like(np.asarray(t, dtype=float))
        half, mirrored = self._fold(t)
        return np.where(mirrored, -1.0, 1.0) * self._dense(half, 1)

    def second_derivative(self, t):
        """xi'' from the ODE: q xi - c xi^e (exact given xi)."""
        xi = self.value(t)
        return self.params.q * xi - self.params.c * xi ** self.params.e


def _orbit_system(params: FowlerParams):
    """rhs(t, y) of xi'' = q xi - c xi^e on (xi, xi'), constants bound once."""
    q, c, e = params.q, params.c, params.e

    def rhs(t, y):
        xi, xi_prime = y.tolist()  # Python floats: cheaper than numpy here
        return [xi_prime, q * xi - c * xi ** e]
    return rhs


def constant_orbit(params: FowlerParams) -> FowlerOrbit:
    """The constant solution packaged as an orbit.

    A constant has no intrinsic period; the stored period is the linearization
    period 2 pi / sqrt(q (e-1)), which is the limit of orbit periods as
    eps -> xi* and the natural time scale for mode-0 oscillations.
    """
    xistar = constant_solution(params)
    period = small_oscillation_period(params)
    t = np.linspace(0.0, period, ORBIT_SAMPLES)
    xi = np.full_like(t, xistar)
    return FowlerOrbit(params=params, epsilon=xistar, period=period, t=t,
                       xi=xi, xi_prime=np.zeros_like(t),
                       energy=hamiltonian(xistar, 0.0, params),
                       is_constant=True, energy_drift=0.0)


def periodic_orbit(epsilon: float, params: FowlerParams,
                   tol: float = 1e-10) -> FowlerOrbit:
    """Shoot the orbit with xi(0) = eps, xi'(0) = 0 over half a period.

    The first sign change of xi' (decreasing) locates the maximum at T/2.  The
    orbit is even about both turning points, xi(T - t) = xi(t) and
    xi'(T - t) = -xi'(t), so one solve over [0, T/2] gives the whole period:
    ORBIT_SAMPLES uniform samples over [0, T] are taken on the first half and
    mirrored, and the dense interpolant of that solve is folded the same way.
    The samples and every later orbit value are read off the interpolant
    through one `DenseSolution`, the peak off the terminal event; the orbit
    keeps the solve's evaluations and accepted steps.  A failed solve or
    check raises `IntegrationError` naming the problem and eps.
    """
    if not 0 < tol < math.inf:  # a NaN or infinite tol never ends the solve
        raise ValueError(f"tol must be positive and finite, got tol = {tol!r}")
    _check_epsilon(epsilon, params)

    def at_max(t, y):
        return y[1]
    at_max.terminal = True
    at_max.direction = -1

    # integrate well below the requested tolerance: the dense-output
    # interpolant (used for sampling) is one order weaker than the stepper
    rtol = max(tol / 30.0, 1e-13)
    atol = rtol * 1e-2
    t_lin = small_oscillation_period(params)
    t_cap = 50.0 * (t_lin + 2.0 * abs(math.log(epsilon)) / math.sqrt(params.q)
                    + 5.0)
    # the step cap is needed before T is known: a sixteenth of the period
    # of small oscillations about xi*, the limit of T as eps -> xi*
    step_cap = t_lin / 16.0
    with np.errstate(invalid="ignore"):  # slow orbits: inf/inf error norms
        sol = solve_ivp(_orbit_system(params), (0.0, t_cap), [epsilon, 0.0],
                        method=BareDOP853, rtol=rtol, atol=atol, events=at_max,
                        dense_output=True, max_step=step_cap)
    orbit_name = params.named(("eps", epsilon))
    if not sol.success or len(sol.t_events[0]) == 0:
        raise IntegrationError(
            f"no return to xi' = 0 before t = {t_cap:g} ({orbit_name}); last "
            f"accepted t = {sol.t[-1]:.6g}, state = {sol.y[:, -1]}")
    period = 2.0 * float(sol.t_events[0][0])

    dense = DenseSolution(sol.sol)
    t = np.linspace(0.0, period, ORBIT_SAMPLES)
    first = dense(t[:(ORBIT_SAMPLES + 1) // 2])
    mirror = first[:, :ORBIT_SAMPLES // 2][:, ::-1]  # the samples at T - t
    xi = np.concatenate([first[0], mirror[0]])
    xip = np.concatenate([first[1], -mirror[1]])
    h0 = hamiltonian(epsilon, 0.0, params)
    drift = float(np.max(np.abs(hamiltonian(xi, xip, params) - h0)))
    energy_scale = max(1.0, abs(h0))
    if drift > 10.0 * max(tol, 1e-12) * energy_scale:
        raise IntegrationError(f"Hamiltonian drift {drift:.3e} exceeds "
                               f"10*tol*{energy_scale:.3g} ({orbit_name})")
    peak = float(sol.y_events[0][0][0])  # the maximum, at T/2 exactly
    peak_expected = max_value(epsilon, params)
    if abs(peak - peak_expected) > 10.0 * max(tol, 1e-12) * peak_expected:
        raise IntegrationError(
            f"orbit maximum {peak:.12g} disagrees with energy-level root "
            f"{peak_expected:.12g} ({orbit_name})")

    return FowlerOrbit(params=params, epsilon=float(epsilon), period=period,
                       t=t, xi=xi, xi_prime=xip, energy=h0,
                       is_constant=False, energy_drift=drift,
                       rhs_evals=int(sol.nfev), steps=len(sol.t) - 1,
                       _dense=dense)


def output_fields(result) -> dict:
    """A result's compared dataclass fields by name, arrays as lists: what
    its result file holds.  A `compare=False` field, a work count or a
    cache, stays out of every result file."""
    out = {f.name: getattr(result, f.name) for f in fields(result) if f.compare}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in out.items()}


def orbit_to_dict(orbit: FowlerOrbit) -> dict:
    return dict(output_fields(orbit), params=orbit.params.describe())
