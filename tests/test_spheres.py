import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

from fowlerlab import cylinder, spheres


def test_eigenvalue_examples():
    assert spheres.eigenvalue(0, 5) == 0
    assert spheres.eigenvalue(1, 5) == 4
    assert spheres.eigenvalue(2, 4) == 8


def test_eigenvalue_monotone_in_degree():
    for n in range(3, 9):
        vals = [spheres.eigenvalue(k, n) for k in range(11)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eigenvalue_rejects_bad_dimension():
    with pytest.raises(ValueError):
        spheres.eigenvalue(1, 2)
    with pytest.raises(ValueError):
        spheres.multiplicity(1, 2)


def _harmonic_dimension_oracle(k, n):
    # count linearly independent harmonic homogeneous polynomials of degree k:
    # dimension of the kernel of the Laplacian, as a linear map from the
    # degree-k monomial basis to the degree-(k-2) monomial basis
    import itertools

    def monomials(d):
        return [m for m in itertools.product(range(d + 1), repeat=n)
                if sum(m) == d]

    monos_k = monomials(k)
    if k < 2:
        return len(monos_k)
    monos_lo = monomials(k - 2)
    row = {m: i for i, m in enumerate(monos_lo)}
    lap = np.zeros((len(monos_lo), len(monos_k)))
    for j, m in enumerate(monos_k):
        for axis in range(n):
            if m[axis] >= 2:
                tgt = list(m)
                tgt[axis] -= 2
                lap[row[tuple(tgt)], j] += m[axis] * (m[axis] - 1)
    return len(monos_k) - np.linalg.matrix_rank(lap)


def test_multiplicity_examples_and_oracle():
    assert spheres.multiplicity(0, 5) == 1
    assert spheres.multiplicity(1, 5) == 5
    assert spheres.multiplicity(2, 3) == _harmonic_dimension_oracle(2, 3) == 5
    for k, n in [(2, 4), (3, 3), (3, 5), (4, 4)]:
        assert spheres.multiplicity(k, n) == _harmonic_dimension_oracle(k, n)


def test_eval_zonal_examples():
    m0 = spheres.HarmonicMode(0, 5)
    assert_allclose(spheres.eval_zonal(m0, 0.3), 1.0)
    m1 = spheres.HarmonicMode(1, 7)
    s = np.linspace(-1, 1, 11)
    assert_allclose(spheres.eval_zonal(m1, s), s, atol=1e-15)
    m2 = spheres.HarmonicMode(2, 4)
    assert_allclose(spheres.eval_zonal(m2, 1.0), 1.0, atol=1e-14)


def test_zonal_orthogonality_under_weight():
    for n in range(3, 9):
        s, w = spheres.quadrature(n, 64)
        basis = [spheres.eval_zonal(spheres.HarmonicMode(k, n), s)
                 for k in range(9)]
        for i in range(9):
            for j in range(i + 1, 9):
                inner = float(np.sum(w * basis[i] * basis[j]))
                assert abs(inner) < 1e-10, (n, i, j, inner)


def laplace_beltrami_on_degree1_square(a, theta) -> float:
    """Delta_theta applied to <a, theta>^2, evaluated analytically.

    Uses the harmonic decomposition <a,theta>^2 = Q(theta) + |a|^2/n with Q a
    degree-2 harmonic, so the value is -eigenvalue(2, n) * Q(theta).
    """
    a = np.asarray(a, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n = a.shape[0]
    dot = float(a @ theta)
    q_part = dot * dot - float(a @ a) / n
    return -spheres.eigenvalue(2, n) * q_part


def degree1_quadratic_identity(a, theta):
    """Both sides of 2|a|^2 = 2n <a,theta>^2 + Delta_theta(<a,theta>^2).

    The right side evaluates the Laplace-Beltrami term through the analytic
    degree-2 / degree-0 split, so agreement cross-checks the eigenvalue
    bookkeeping rather than restating an algebraic identity.
    """
    a = np.asarray(a, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if a.shape != theta.shape:
        raise ValueError("a and theta must have the same dimension")
    n = a.shape[0]
    if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
        raise ValueError("theta must lie on the unit sphere (|theta| = 1)")
    lhs = 2.0 * float(a @ a)
    dot = float(a @ theta)
    rhs = 2.0 * n * dot * dot + laplace_beltrami_on_degree1_square(a, theta)
    return lhs, rhs


def test_degree1_quadratic_identity_examples():
    lhs, rhs = degree1_quadratic_identity(np.zeros(4),
                                          np.array([1.0, 0, 0, 0]))
    assert lhs == rhs == 0.0
    e1 = np.array([1.0, 0, 0, 0])
    e2 = np.array([0.0, 1, 0, 0])
    # oracle: Delta_theta(theta_1^2) = 2 - 2 n theta_1^2 from the degree-2
    # eigenvalue; at theta = e1 the right side is 2n + (2 - 2n) = 2
    lhs, rhs = degree1_quadratic_identity(e1, e1)
    assert_allclose([lhs, rhs], [2.0, 2.0], atol=1e-14)
    lhs, rhs = degree1_quadratic_identity(e1, e2)
    assert_allclose([lhs, rhs], [2.0, 2.0], atol=1e-14)


def test_degree1_quadratic_identity_random_pairs():
    rng = np.random.default_rng(7)
    for n in range(3, 9):
        worst = 0.0
        for _ in range(1000):
            a = rng.normal(size=n)
            theta = rng.normal(size=n)
            theta /= np.linalg.norm(theta)
            lhs, rhs = degree1_quadratic_identity(a, theta)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-12, (n, worst)


def test_identity_rejects_nonunit_theta():
    with pytest.raises(ValueError):
        degree1_quadratic_identity(np.ones(4), np.ones(4))


def test_quadrature_is_memoized_and_read_only(monkeypatch):
    s, w = spheres.quadrature(6, 64)
    ref_s, ref_w = roots_jacobi(64, 1.5, 1.5)
    assert np.array_equal(s, ref_s) and np.array_equal(w, ref_w)
    for arr in (s, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    modes = tuple(spheres.HarmonicMode(k, 6) for k in range(3))
    first = cylinder.ZonalProjector(6, modes)
    calls = []
    monkeypatch.setattr(spheres, "roots_jacobi",
                        lambda *a: calls.append(a) or roots_jacobi(*a))
    second = cylinder.ZonalProjector(6, modes)
    assert calls == []
    assert second.s is first.s and second.w is first.w
    # an unseen (n, num) pair computes its nodes once
    spheres.quadrature(6, 23)
    spheres.quadrature(6, 23)
    assert calls == [(23, 1.5, 1.5)]


def test_eigenvalue_sequence_with_multiplicity():
    lams, degs = spheres.eigenvalue_sequence(5, 7)
    assert lams.tolist() == [0, 4, 4, 4, 4, 4, 10]
    assert degs.tolist() == [0, 1, 1, 1, 1, 1, 2]


def test_index_of_last_degree_refuses_a_negative_degree():
    assert spheres.index_of_last_degree(5, 1) == 5
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match=f"max_degree = {bad!r}"):
            spheres.index_of_last_degree(5, bad)


def test_l2_norm_constant_mode_is_sphere_area():
    for n in (3, 5, 8):
        m0 = spheres.HarmonicMode(0, n)
        assert_allclose(spheres.l2_norm(m0) ** 2, spheres.sphere_area(n),
                        rtol=1e-12)


def test_square_split_reassembles():
    for n in range(3, 9):
        c2, c0 = spheres.degree1_square_split(n)
        s = np.linspace(-1, 1, 41)
        z2 = spheres.eval_zonal(spheres.HarmonicMode(2, n), s)
        assert_allclose(c2 * z2 + c0, s * s, atol=1e-13)

