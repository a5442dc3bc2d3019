"""Explicit expansion terms at a Fowler orbit and resonant periodic solves.

Conformal translates: for a vector a the function

    xi_a(t, theta) = |theta - e^{-t} a|^{-(n-2)/2} xi(t + ln|theta - e^{-t} a|)

solves the constant-curvature cylinder equation exactly and expands in powers
of e^{-t}.  The first-order coefficient is (n-2)/2 xi - xi' (times <a,theta>);
the second-order terms split into zonal degree-2 and degree-0 parts through
the decomposition <a,theta>^2 = |a|^2 [ (n-1)/n Z_2 + 1/n ].

The resonant solver inverts L_i on forcings of the form a(t) t^m e^{-mu t}
with periodic a: conjugating by e^{-mu t} gives the periodic-coefficient
operator A = -d^2/dt^2 + 2 mu d/dt + (V - mu^2), solved by Fourier
collocation: A is the circulant of the multiplier k^2 + 2 mu i k plus a
diagonal, and each call factors one matrix.  Off resonance that is A, with one
LU shared by every power of t.  When mu hits the mode's Floquet exponent, A is
singular, the ansatz gains one power of t and the top coefficient is fixed by
solvability against the adjoint kernel; the one LU is then of A bordered by
the sampled kernel factors (Keller's bordering), which yields A's null vectors
and every solve in the gauge orthogonal to its kernel.  The equation of each
power of t is stated once: every branch solves the same cascade, from the
top power down, and the residual is taken from those same equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import circulant, lu_factor, lu_solve

from . import floquet, spheres
from .fowler import FowlerOrbit
from .periodic import PeriodicFunction

RESONANCE_TOL = 1e-8
COLLOCATION_SIZE = 256
RESIDUAL_LIMIT = 1e-8


@dataclass(frozen=True)
class ExpansionTerm:
    """One term c(t) t^j e^{-mu t} X(theta) with periodic coefficient c."""

    mu: float
    t_power: int
    coeff: PeriodicFunction
    mode: spheres.HarmonicMode

    def evaluate(self, t, s):
        """Value on the tensor grid of times t and cosines s = <axis, theta>."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        radial = self.coeff(t) * t**self.t_power * np.exp(-self.mu * t)
        angular = spheres.eval_zonal(self.mode, s)
        return np.outer(radial, angular)


def _require_conformal(orbit):
    if orbit.params.kind != "conformal":
        raise ValueError("translate machinery requires conformal provenance")


def first_order_term(orbit: FowlerOrbit, amplitude: float = 1.0) -> ExpansionTerm:
    """The kernel term e^{-t} ((n-2)/2 xi - xi') Y with Y = amplitude * Z_1."""
    _require_conformal(orbit)
    n = orbit.params.n
    coeff = amplitude * ((n - 2) / 2.0 * orbit.xi - orbit.xi_prime)
    return ExpansionTerm(mu=1.0, t_power=0,
                         coeff=PeriodicFunction.from_closed_grid(
                             coeff, orbit.period),
                         mode=spheres.HarmonicMode(1, n))


def translate_zonal(orbit: FowlerOrbit, amag: float, t, s):
    """xi_a as a function of t and the cosine s = <a/|a|, theta>."""
    _require_conformal(orbit)
    t = np.asarray(t, dtype=float)
    if amag > 0 and np.any(t <= np.log(amag)):
        raise ValueError("translate undefined for t <= ln|a|")
    n = orbit.params.n
    r = amag * np.exp(-t)
    w2 = 1.0 - 2.0 * r * s + r * r  # |theta - e^{-t} a|^2
    logw = 0.5 * np.log(w2)
    return w2 ** (-(n - 2) / 4.0) * orbit.value(t + logw)


def translate_expansion(orbit: FowlerOrbit, a, order: int):
    """Expansion terms of xi_a through the requested order (1 or 2).

    Order 1 returns the degree-1 kernel term; order 2 appends the degree-2
    and degree-0 parts of the quadratic terms.  All angular factors are
    zonal about a/|a| with the magnitude |a| folded into the coefficients.
    An `a` with no finite terms of the order raises ValueError naming it.
    """
    _require_conformal(orbit)
    if order not in (1, 2):
        raise ValueError("only expansion orders 1 and 2 are defined")
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing |a|^2 is refused
        square = float(a @ a)
    if not (np.isfinite(a).all() and np.isfinite(square)):
        raise ValueError(f"expansion amplitudes need finite entries and a "
                         f"finite |a|^2, got a = {a.tolist()!r}")
    amag = float(np.sqrt(square))
    if amag == 0.0:
        return []
    n = orbit.params.n
    params = orbit.params
    terms = [first_order_term(orbit, amplitude=amag)]
    if order == 2:
        e = params.e
        a_coeff = -0.5 * params.c * orbit.xi**e          # multiplies Y^2
        b_coeff = -(n - 2) / 8.0 * orbit.xi + 0.25 * orbit.xi_prime
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            c22 = amag**2 * (n - 1) * (a_coeff / n - 2.0 * b_coeff)
            c20 = amag**2 * a_coeff / n
            # a function's sum of sample magnitudes bounds its Fourier sums
            bounds = [np.abs(c[:-1]).sum() for c in (c22, c20)]
        if not np.isfinite(bounds).all():
            raise ValueError(f"order-2 expansion coefficients overflow for "
                             f"a = {a.tolist()!r}")
        for degree, values in ((2, c22), (0, c20)):
            terms.append(ExpansionTerm(
                mu=2.0, t_power=0,
                coeff=PeriodicFunction.from_closed_grid(values, orbit.period),
                mode=spheres.HarmonicMode(degree, n)))
    return terms


def evaluate_terms(terms, t, s):
    """Sum of term values on the (t, s) tensor grid."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros((t.size, s.size))
    for term in terms:
        out += term.evaluate(t, s)
    return out


def xi2_identity_defect(orbit: FowlerOrbit) -> float:
    """Sup-norm defect of the operator identity satisfied by the pair.

    Assembles L(xi_2) - F ((n-2)/2 xi - xi')^2 Y^2 e^{-2t} mode-by-mode (F
    the explicit prefactor) and returns the max over the orbit-period grid
    and a dense cosine grid.  Every t-derivative of the coefficients reduces
    through xi'' = q xi - c xi^e to an exact expression in (xi, xi'), so no
    numerical differentiation enters.
    """
    _require_conformal(orbit)
    n = orbit.params.n
    params = orbit.params
    t = orbit.t[:-1]
    xi, xip = orbit.xi[:-1], orbit.xi_prime[:-1]
    e, c, q = params.e, params.c, params.q

    xi_em1 = xi ** (e - 1.0)
    v0 = q - e * c * xi_em1
    xipp = q * xi - c * xi**e
    xippp = v0 * xip

    # A = -(c/2) xi^e multiplies Y^2; B = -(n-2)/8 xi + xi'/4 multiplies
    # Delta_theta(Y^2); derivatives via the ODE
    a0 = -0.5 * c * xi**e
    a1 = -0.5 * c * e * xi_em1 * xip
    a2 = -0.5 * c * e * ((e - 1.0) * xi ** (e - 2.0) * xip**2
                         + xi_em1 * xipp)
    b0 = -(n - 2) / 8.0 * xi + 0.25 * xip
    b1 = -(n - 2) / 8.0 * xip + 0.25 * xipp
    b2 = -(n - 2) / 8.0 * xipp + 0.25 * xippp

    def conjugated(f0, f1, f2, lam):
        # e^{2t} L_lam (f e^{-2t}) for f with explicit derivatives
        return -f2 + 4.0 * f1 - 4.0 * f0 + (v0 + lam) * f0

    lam2 = spheres.eigenvalue(2, n)
    c2_part, c0_part = spheres.degree1_square_split(n)
    w = n - 1.0
    lc22 = w * (conjugated(a0, a1, a2, lam2) / n
                - 2.0 * conjugated(b0, b1, b2, lam2))
    lc20 = conjugated(a0, a1, a2, 0.0) / n

    p_plus = (n - 2) / 2.0 * xi - xip
    rhs = 2.0 * (n + 2) / (n - 2) ** 2 * c * xi ** ((6.0 - n) / (n - 2)) * p_plus**2
    defect2 = lc22 - c2_part * rhs
    defect0 = lc20 - c0_part * rhs

    s = np.linspace(-1.0, 1.0, 101)
    z2 = spheres.eval_zonal(spheres.HarmonicMode(2, n), s)
    # each row of the field is affine in z2 through float operations that are
    # monotone in z2, so its largest magnitude sits at z2's extreme samples
    z2 = z2[[np.argmin(z2), np.argmax(z2)]]
    field = (np.outer(defect2, z2) + defect0[:, None]) * np.exp(-2.0 * t)[:, None]
    return float(np.max(np.abs(field)))


def _diff_multiplier(num: int, period: float, order: int) -> np.ndarray:
    """The Fourier multiplier (i k)^order on `num` nodes over [0, T), with
    the odd derivatives of the Nyquist mode set to zero."""
    k = np.fft.fftfreq(num, d=period / num) * 2.0 * np.pi
    mult = (1j * k) ** order
    if order % 2 == 1 and num % 2 == 0:
        mult[num // 2] = 0.0
    return mult


def _circulant(mult: np.ndarray) -> np.ndarray:
    """Dense matrix of a Fourier multiplier: entry (i, j) is col[(i - j) % num],
    where col is the inverse FFT of the multiplier."""
    return circulant(np.real(np.fft.ifft(mult)))


def _pinv_solver(u, s, vt):
    """b -> V diag(1/s) U^T b over the singular values above numpy's default
    `lstsq` cut (machine epsilon times the size times the largest)."""
    keep = s > np.finfo(float).eps * max(u.shape[0], vt.shape[0]) * s[0]
    u, s, vt = u[:, keep], s[keep], vt[keep]
    return lambda b: vt.T @ ((u.T @ b) / s)


class ResonantSolveError(RuntimeError):
    """A resonant-mode solve with no trustworthy solution: a degenerate
    solvability pairing, a singular or non-finite factorization, or a
    residual above RESIDUAL_LIMIT.  The message names n, eps, lambda and mu."""


@dataclass
class ResonantSolution:
    """Particular solution e^{-mu t} sum_j t^j r_j(t) with periodic r_j."""

    mu: float
    coefficients: list      # PeriodicFunction per power j = 0..max_power
    max_power: int
    resonant: bool
    residual: float
    oscillatory: bool = False

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        acc = np.zeros_like(t)
        for j, r in enumerate(self.coefficients):
            acc = acc + r(t) * t**j
        return acc * np.exp(-self.mu * t)


def solve_resonant_mode(a_coeff, mu: float, op: floquet.ModeOperator,
                        t_power: int = 0) -> ResonantSolution:
    """Solve L_i(e^{-mu t} sum t^j r_j) = a(t) t^m e^{-mu t} with periodic r_j.

    The periodic forcing a is given either as a callable of t (a
    PeriodicFunction among them) or as its values on the COLLOCATION_SIZE
    nodes k T / COLLOCATION_SIZE; an array of any other length raises
    ValueError.  Off resonance the powers run to m; at resonance (mu equal to
    the mode's hyperbolic exponent within RESONANCE_TOL) to m + 1, with the
    top coefficient a kernel-factor multiple fixed by solvability and the
    j = 0 coefficient gauged to zero projection onto the kernel factor.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    orbit = op.orbit
    T = orbit.period
    num = COLLOCATION_SIZE
    nodes = np.arange(num) * (T / num)
    where = f"({orbit.named(('lambda', float(op.lam)), ('mu', float(mu)))})"
    if callable(a_coeff):
        a_nodes = np.asarray(a_coeff(nodes), dtype=float)
    else:
        a_nodes = np.asarray(a_coeff, dtype=float)
        if a_nodes.shape != nodes.shape:
            raise ValueError(f"forcing array of shape {a_nodes.shape}, not "
                             f"one value per {num} collocation nodes {where}")

    datum = floquet.spectrum(orbit, [op.lam])[op.lam]
    resonant = datum.type == floquet.TYPE_III and abs(mu - datum.sigma) <= RESONANCE_TOL
    oscillatory = datum.type != floquet.TYPE_III

    # A = -d^2 + 2 mu d + V - mu^2 is a circulant with multiplier
    # k^2 + 2 mu i k plus a diagonal; d itself is applied by FFT
    d1_mult = _diff_multiplier(num, T, 1)
    a_mat = _circulant(-_diff_multiplier(num, T, 2) + 2.0 * mu * d1_mult)
    a_mat[np.diag_indices(num)] += op.potential(nodes) - mu * mu

    def d1(x):
        return np.real(np.fft.ifft(d1_mult * np.fft.fft(x)))

    def factor(mat):
        if not np.all(np.isfinite(mat)):
            raise ResonantSolveError(f"non-finite collocation matrix {where}")
        lu_piv = lu_factor(mat, check_finite=False)
        if np.any(np.diag(lu_piv[0]) == 0.0):
            raise ResonantSolveError(f"singular collocation matrix {where}")
        return lambda b, trans=0: lu_solve(lu_piv, b, trans=trans,
                                           check_finite=False)

    # r_0..r_J (J = m off resonance, m + 1 at it) and two zero rows above
    max_power = t_power + 1 if resonant else t_power
    rs = np.zeros((max_power + 3, num))

    def cascade(k):
        """Right side of the t^k equation A r_k = cascade(k), given r_{k+1}
        and r_{k+2}."""
        rhs = a_nodes if k == t_power else np.zeros(num)
        return (rhs - (k + 1) * (-2.0 * d1(rs[k + 1]) + 2.0 * mu * rs[k + 1])
                + (k + 1) * (k + 2) * rs[k + 2])

    if not resonant:
        if oscillatory and np.linalg.cond(a_mat) > 1e12:
            solve = _pinv_solver(*np.linalg.svd(a_mat))
        else:
            solve = factor(a_mat)  # one LU for every level of the cascade
    else:
        # the top coefficient is a pure kernel-factor multiple, each gamma
        # is fixed by solvability one level down, and the j = 0 coefficient
        # gets the zero-kernel-projection gauge.
        # Keller's bordering: A is singular with null vector ~ q+ and left
        # null vector ~ q-, so B = [[A, q-], [q+^T, 0]] is not, and one LU of
        # B gives both null vectors from its last column and row.  They are
        # the collocation matrix's own: sampled q+ would carry its roundoff
        # through d^2 into the residual.  The border row q+^T qk = 1 > 0 also
        # aligns the sign of qk with q+.  q-(t) = q+(T - t) on the nodes.
        # Only this branch reads the kernel factors.
        datum = floquet.spectrum(orbit, [op.lam], with_factors=True)[op.lam]
        q_plus = datum.q_plus(nodes)
        q_minus = np.roll(q_plus[::-1], 1)
        bordered = np.zeros((num + 1, num + 1))
        bordered[:num, :num] = a_mat
        bordered[:num, num] = q_minus / np.linalg.norm(q_minus)
        bordered[num, :num] = q_plus / np.linalg.norm(q_plus)
        border_solve = factor(bordered)
        unit = np.zeros(num + 1)
        unit[num] = 1.0
        qk = border_solve(unit)[:num]
        qk /= np.linalg.norm(qk)
        w_null = border_solve(unit, trans=1)[:num]
        w_null /= np.linalg.norm(w_null)
        gvec = -2.0 * d1(qk) + 2.0 * mu * qk
        denom = float(w_null @ gvec)
        if not abs(denom) >= 1e-10:
            raise ResonantSolveError(
                f"degenerate solvability pairing {denom:.3e} in resonant "
                f"solve {where}")

        def solve(rhs):
            sol = border_solve(np.append(rhs, 0.0))[:num]
            return sol - (qk @ sol) * qk  # deterministic gauge

    for k in range(t_power, -1, -1):
        rhs = cascade(k)
        if resonant:  # solvability fixes the kernel part of r_{k+1}
            gamma = float(w_null @ rhs) / ((k + 1) * denom)
            rs[k + 1] += gamma * qk
            rhs = rhs - gamma * (k + 1) * gvec
        rs[k] = solve(rhs)

    # residual of the assembled ansatz in the same equations (np.max keeps
    # a NaN, which the check refuses)
    scale = max(1.0, float(np.max(np.abs(a_nodes))))
    res = float(np.max([np.max(np.abs(a_mat @ rs[k] - cascade(k)))
                        for k in range(max_power + 1)])) / scale
    if not res <= RESIDUAL_LIMIT:  # NaN fails too
        raise ResonantSolveError(f"resonant-mode solve residual {res:.3e} "
                                 f"exceeds {RESIDUAL_LIMIT:g} {where}")
    coeffs = [PeriodicFunction(r, T) for r in rs[:max_power + 1]]
    return ResonantSolution(mu=mu, coefficients=coeffs, max_power=max_power,
                            resonant=resonant, residual=res,
                            oscillatory=oscillatory)
