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

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

DEGENERACY_GAP = 1e-6  # reject eps closer to xi* than this (relative)
ORBIT_SAMPLES = 2048  # uniform samples over [0, T], both ends included


class IntegrationError(RuntimeError):
    """Raised when the ODE integrator fails; carries the last accepted step."""


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
        if n < 3:
            raise ValueError("conformal problem requires n >= 3")
        if k0 <= 0:
            raise ValueError("K(0) must be positive")
        q = (n - 2) ** 2 / 4.0
        e = (n + 2) / (n - 2)
        return FowlerParams(q=q, c=float(k0), e=e, kind="conformal", n=int(n), k0=float(k0))

    @staticmethod
    def ckn(n: int, a: float, b: float) -> "FowlerParams":
        if n < 3:
            raise ValueError("CKN problem requires n >= 3")
        if not (0 <= a < (n - 2) / 2):
            raise ValueError(f"need 0 <= a < (n-2)/2, got a={a}")
        if not (a <= b < a + 1):
            raise ValueError(f"need a <= b < a+1, got a={a}, b={b}")
        p = 2.0 * n / (n - 2 + 2 * (b - a))
        q = (n - 2 * a - 2) ** 2 / 4.0
        return FowlerParams(q=q, c=1.0, e=p - 1.0, kind="ckn", n=int(n),
                            a=float(a), b=float(b), p=p)

    def describe(self) -> dict:
        d = {"kind": self.kind, "n": self.n, "q": self.q, "c": self.c, "e": self.e}
        if self.kind == "conformal":
            d["k0"] = self.k0
        else:
            d.update(a=self.a, b=self.b, p=self.p)
        return d


def constant_solution(params: FowlerParams) -> float:
    """The unique positive constant solving q xi = c xi^e."""
    return (params.q / params.c) ** (1.0 / (params.e - 1.0))


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


def max_value(epsilon: float, params: FowlerParams) -> float:
    """The orbit maximum: unique root s > xi* of G(s) = G(eps)."""
    xistar = constant_solution(params)
    if not 0 < epsilon < xistar:
        raise ValueError("no periodic orbit above the constant solution")
    h0 = _potential(epsilon, params)
    hi = upper_turning_bound(params)
    return brentq(lambda s: _potential(s, params) - h0, xistar, hi,
                  xtol=1e-13, rtol=8.9e-16)


def _expm1_log1p_ratio(y, scale):
    """(exp(scale*log1p(y)) - 1) / y, computed without cancellation."""
    y = np.asarray(y, dtype=float)
    x = scale * np.log1p(y)
    small_y = np.abs(y) < 1e-8
    log_ratio = np.where(small_y, 1.0 - y / 2.0 + y * y / 3.0,
                         np.log1p(np.where(small_y, 1.0, y)) / np.where(small_y, 1.0, y))
    small_x = np.abs(x) < 1e-8
    exp_ratio = np.where(small_x, 1.0 + x / 2.0 + x * x / 6.0,
                         np.expm1(np.where(small_x, 1.0, x)) / np.where(small_x, 1.0, x))
    return scale * log_ratio * exp_ratio


def period_quadrature(epsilon: float, params: FowlerParams) -> float:
    """Orbit period via the energy integral T = 2 int_eps^max ds / sqrt(2(H - G(s))).

    Both endpoints are simple turning points; substituting s = eps + u^2 and
    s = smax - u^2 removes the inverse-square-root singularities, and the
    level differences G(turning point) - G(s) are expanded through
    expm1/log1p so the integrand stays smooth down to u = 0 even for orbits
    close to the constant solution.
    """
    xistar = constant_solution(params)
    if not 0 < epsilon < xistar:
        raise ValueError("no periodic orbit above the constant solution")
    smax = max_value(epsilon, params)
    q, c, e = params.q, params.c, params.e

    def left(u):
        # 2 (G(eps) - G(eps + u^2)) / u^2, exact at u = 0
        u2 = u * u
        s = epsilon + u2
        ratio = _expm1_log1p_ratio(u2 / epsilon, e + 1.0)
        val = q * (s + epsilon) - (2.0 * c / (e + 1.0)) * epsilon**e * ratio
        return 2.0 / np.sqrt(val)

    def right(u):
        # 2 (G(smax) - G(smax - u^2)) / u^2, exact at u = 0
        u2 = u * u
        s = smax - u2
        ratio = _expm1_log1p_ratio(-u2 / smax, e + 1.0)
        val = -q * (s + smax) + (2.0 * c / (e + 1.0)) * smax**e * ratio
        return 2.0 / np.sqrt(val)

    u_left = math.sqrt(xistar - epsilon)
    u_right = math.sqrt(smax - xistar)
    i_left, _ = quad(left, 0.0, u_left, epsabs=1e-13, epsrel=1e-12, limit=200)
    i_right, _ = quad(right, 0.0, u_right, epsabs=1e-13, epsrel=1e-12, limit=200)
    return 2.0 * (i_left + i_right)


class DenseSolution:
    """The dense output of an ascending DOP853 solve, evaluated in one pass.

    scipy's `OdeSolution` loops in Python over the segments that a set of
    points touches.  Here every segment's start, step, initial state and
    reversed interpolation coefficients are stacked once (states x segments),
    and any array of t is evaluated with whole-array operations: the segment
    by scipy's rule (the lower one at a knot, the end segments beyond the
    ends), then scipy's own alternating product x(1 - x)x... from zero.  The
    values are bitwise equal to `sol.sol(t)`, scalars included.
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

    def __call__(self, t):
        """States at t: shape (states,) for a scalar, (states, points) else."""
        t = np.asarray(t)
        seg = np.clip(np.searchsorted(self.knots, t, side="left") - 1,
                      0, self.h.size - 1)
        x = (t - self.t_old[seg]) / self.h[seg]
        coeffs = self.coeffs[:, :, seg]
        y = np.zeros(coeffs.shape[1:])
        for i, f in enumerate(coeffs):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old[:, seg]
        return y


@dataclass(frozen=True)
class FowlerOrbit:
    """One period of a positive Fowler solution, from the minimum at t = 0.

    `value` and `derivative` fold t into [0, T/2] and evaluate the shooting
    solve's dense output there through a `DenseSolution`.
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
    _dense: DenseSolution | None = field(default=None, repr=False, compare=False)
    # per eigenvalue, kept by floquet.spectrum; per window, kept by cylinder
    _floquet: dict = field(default_factory=dict, repr=False, compare=False)
    _windows: dict = field(default_factory=dict, repr=False, compare=False)

    def _fold(self, t):
        # the interpolant covers [0, T/2]; xi is even about 0 and T/2
        tm = np.mod(t, self.period)
        return np.minimum(tm, self.period - tm), tm > self.period - tm

    def value(self, t):
        """xi at arbitrary t (periodic extension)."""
        if self.is_constant:
            return np.full_like(np.asarray(t, dtype=float), self.epsilon)
        half, _ = self._fold(t)
        return self._dense(half)[0]

    def derivative(self, t):
        """xi' at arbitrary t (periodic extension)."""
        if self.is_constant:
            return np.zeros_like(np.asarray(t, dtype=float))
        half, mirrored = self._fold(t)
        return np.where(mirrored, -1.0, 1.0) * self._dense(half)[1]

    def second_derivative(self, t):
        """xi'' from the ODE: q xi - c xi^e (exact given xi)."""
        xi = self.value(t)
        return self.params.q * xi - self.params.c * xi ** self.params.e


def _rhs(t, y, params):
    xi, xi_prime = y.tolist()  # Python floats: cheaper than numpy here
    return [xi_prime, params.q * xi - params.c * xi ** params.e]


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
    The samples, the peak and every later orbit value are read off the
    interpolant through one `DenseSolution`.  A failed solve or check raises
    `IntegrationError` naming the problem kind, n and eps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    xistar = constant_solution(params)
    if not 0 < epsilon < xistar:
        raise ValueError("no periodic orbit above the constant solution")
    if xistar - epsilon < DEGENERACY_GAP * xistar:
        raise ValueError(
            f"eps within {DEGENERACY_GAP:g}*xi* of the constant solution: "
            "orbit is numerically degenerate")

    def at_max(t, y, params):
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
    sol = solve_ivp(_rhs, (0.0, t_cap), [epsilon, 0.0], args=(params,),
                    method="DOP853", rtol=rtol, atol=atol, events=at_max,
                    dense_output=True, max_step=step_cap)
    orbit_name = f"{params.kind} n = {params.n}, eps = {epsilon!r}"
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
    peak = float(dense(period / 2.0)[0])  # the maximum sits at T/2 exactly
    peak_expected = max_value(epsilon, params)
    if abs(peak - peak_expected) > 10.0 * max(tol, 1e-12) * peak_expected:
        raise IntegrationError(
            f"orbit maximum {peak:.12g} disagrees with energy-level root "
            f"{peak_expected:.12g} ({orbit_name})")

    return FowlerOrbit(params=params, epsilon=float(epsilon), period=period,
                       t=t, xi=xi, xi_prime=xip, energy=h0,
                       is_constant=False, energy_drift=drift, _dense=dense)


def orbit_to_csv(orbit: FowlerOrbit, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "xi", "xi_prime"])
        for row in zip(orbit.t, orbit.xi, orbit.xi_prime):
            writer.writerow([repr(float(v)) for v in row])


def orbit_to_dict(orbit: FowlerOrbit) -> dict:
    return {
        "params": orbit.params.describe(),
        "epsilon": orbit.epsilon,
        "period": orbit.period,
        "energy": orbit.energy,
        "energy_drift": orbit.energy_drift,
        "is_constant": orbit.is_constant,
        "t": orbit.t.tolist(),
        "xi": orbit.xi.tolist(),
        "xi_prime": orbit.xi_prime.tolist(),
    }


def orbit_to_json(orbit: FowlerOrbit, path):
    with open(path, "w") as fh:
        json.dump(orbit_to_dict(orbit), fh, indent=1, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
