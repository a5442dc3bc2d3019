"""Eigendata of the Laplace-Beltrami operator on the unit sphere S^{n-1}.

Everything angular in this toolkit is zonal: a function of s = <axis, theta>
only.  The degree-k zonal harmonic is the Gegenbauer polynomial
C_k^{(n-2)/2}(s) normalized to 1 at the pole s = 1, which is an eigenfunction
of -Delta_theta with eigenvalue k (k + n - 2).  Integrals over S^{n-1} of
zonal functions reduce to weighted integrals on [-1, 1] with weight
(1 - s^2)^{(n-3)/2}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

DEFAULT_QUADRATURE_NODES = 64


def _check_dimension(n):
    if int(n) != n or n < 3:
        raise ValueError(f"ambient dimension must be an integer >= 3, got {n!r}")


def eigenvalue(k: int, n: int) -> int:
    """Eigenvalue k (k + n - 2) of -Delta_theta on degree-k harmonics (exact)."""
    _check_dimension(n)
    if int(k) != k or k < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {k!r}")
    return int(k) * (int(k) + int(n) - 2)


def multiplicity(k: int, n: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^{n-1}."""
    _check_dimension(n)
    if int(k) != k or k < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {k!r}")
    k, n = int(k), int(n)
    if k == 0:
        return 1
    if k == 1:
        return n
    # dim harmonic polynomials = dim homogeneous(k) - dim homogeneous(k-2)
    return math.comb(n + k - 1, k) - math.comb(n + k - 3, k - 2)


@dataclass(frozen=True)
class HarmonicMode:
    """A zonal spherical-harmonic mode: degree and ambient dimension."""

    degree: int
    dimension: int

    def __post_init__(self):
        _check_dimension(self.dimension)
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")

    @property
    def eigenvalue(self) -> int:
        return eigenvalue(self.degree, self.dimension)


def _gegenbauer_normalized(k, alpha, s):
    """C_k^alpha(s) / C_k^alpha(1) by the three-term recurrence, vectorized."""
    s = np.asarray(s, dtype=float)
    if k == 0:
        return np.ones_like(s)
    # run the recurrence jointly at s and at the pole
    prev, prev1 = np.ones_like(s), 2.0 * alpha * s
    pole_prev, pole = 1.0, 2.0 * alpha
    for j in range(2, k + 1):
        cur = (2.0 * (j - 1 + alpha) * s * prev1 - (j + 2 * alpha - 2) * prev) / j
        pole_cur = (2.0 * (j - 1 + alpha) * pole - (j + 2 * alpha - 2) * pole_prev) / j
        prev, prev1 = prev1, cur
        pole_prev, pole = pole, pole_cur
    return prev1 / pole


def eval_zonal(mode: HarmonicMode, s) -> np.ndarray:
    """Value of the zonal degree-k harmonic at cosine polar angle s.

    Normalized to 1 at the pole (s = 1); for k = 1 this is exactly s.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < -1 - 1e-12) or np.any(s > 1 + 1e-12):
        raise ValueError("s must lie in [-1, 1]")
    alpha = (mode.dimension - 2) / 2.0
    return _gegenbauer_normalized(mode.degree, alpha, np.clip(s, -1.0, 1.0))


@functools.lru_cache(maxsize=None)
def quadrature(n: int, num: int):
    """Gauss-Jacobi nodes/weights on [-1, 1] for weight (1 - s^2)^{(n-3)/2}.

    Memoized per (n, num); the returned arrays are shared and read-only.
    """
    _check_dimension(n)
    a = (n - 3) / 2.0
    nodes, weights = roots_jacobi(num, a, a)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def sphere_area(n: int) -> float:
    """Surface measure of S^{n-1}."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def l2_norm(mode: HarmonicMode) -> float:
    """L^2(S^{n-1}) norm of the pole-normalized zonal harmonic."""
    n = mode.dimension
    s, w = quadrature(n, DEFAULT_QUADRATURE_NODES)
    vals = eval_zonal(mode, s)
    ring = sphere_area(n - 1)  # |S^{n-2}|
    return math.sqrt(ring * float(np.sum(w * vals * vals)))


def eigenvalue_sequence(n: int, count: int):
    """First `count` eigenvalues of -Delta_theta in increasing order with
    multiplicity, starting from index 0 (the constant mode).

    Returns (lambdas, degrees) as integer arrays of length `count`.
    """
    _check_dimension(n)
    if count < 1:
        raise ValueError("count must be >= 1")
    lambdas, degrees = [], []
    k = 0
    while len(lambdas) < count:
        lam, m = eigenvalue(k, n), multiplicity(k, n)
        take = min(m, count - len(lambdas))
        lambdas.extend([lam] * take)
        degrees.extend([k] * take)
        k += 1
    return np.array(lambdas, dtype=int), np.array(degrees, dtype=int)


def index_of_last_degree(n: int, max_degree: int) -> int:
    """Largest index m (counting from 0) with deg(X_m) <= max_degree."""
    if int(max_degree) != max_degree or max_degree < 0:
        raise ValueError(f"degree bound must be a nonnegative integer, got "
                         f"max_degree = {max_degree!r}")
    return sum(multiplicity(k, n) for k in range(max_degree + 1)) - 1


def degree1_square_split(n: int):
    """Split s^2 into zonal degree-2 and degree-0 parts.

    s^2 = c2 * Z_2(s) + c0 with Z_2(s) = (n s^2 - 1)/(n - 1); returns (c2, c0)
    = ((n - 1)/n, 1/n).  The degree-2 part carries eigenvalue 2n, so
    Delta_theta(s^2) = -2n * c2 * Z_2(s).
    """
    _check_dimension(n)
    return (n - 1) / n, 1.0 / n
