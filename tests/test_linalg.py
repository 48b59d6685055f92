"""LU, GMRES, eigenvalues and norms."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from multiscat import linalg


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_lu_identity_roundtrip():
    f = linalg.lu_factor(np.eye(4, dtype=complex))
    b = np.array([1.0 + 2.0j, -3.0, 0.5j, 4.0])
    assert np.array_equal(linalg.lu_solve(f, b), b)


def test_lu_permutation_applies_inverse():
    p = np.zeros((4, 4))
    order = [2, 0, 3, 1]
    p[np.arange(4), order] = 1.0
    f = linalg.lu_factor(p)
    b = np.array([10.0, 20.0, 30.0, 40.0], dtype=complex)
    assert_allclose(linalg.lu_solve(f, p @ b), b, atol=1e-15)


def test_lu_random_residual():
    rng = np.random.default_rng(7)
    a = random_complex(rng, 50, 50) + 50.0 * np.eye(50)
    b = random_complex(rng, 50)
    x = linalg.lu_solve(linalg.lu_factor(a), b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-12


def test_lu_matrix_rhs_reproduces_identity():
    rng = np.random.default_rng(8)
    a = random_complex(rng, 20, 20) + 20.0 * np.eye(20)
    inv = linalg.lu_solve(linalg.lu_factor(a), np.eye(20, dtype=complex))
    assert linalg.inf_norm(a @ inv - np.eye(20)) <= 1e-10


def test_lu_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(linalg.SingularMatrixError):
        linalg.lu_factor(a)
    with pytest.raises(ValueError):
        linalg.lu_factor(np.ones((2, 3)))


def test_gmres_identity_one_iteration():
    b = np.array([1.0, 2.0j, -1.5])
    x, report = linalg.gmres(lambda v: v, b, restart=10, tol=1e-12)
    assert report.converged
    assert report.iterations == 1
    assert_allclose(x, b, rtol=1e-12)
    assert report.residual_history[0] == 1.0


def test_gmres_two_dimensional_krylov():
    a = np.diag([2.0, 3.0]).astype(complex)
    b = np.array([2.0, 3.0], dtype=complex)
    x, report = linalg.gmres(lambda v: a @ v, b, restart=10, tol=1e-12)
    assert report.converged
    assert report.iterations <= 2
    assert_allclose(x, [1.0, 1.0], rtol=1e-10)


def test_gmres_agrees_with_direct_solve():
    rng = np.random.default_rng(17)
    a = random_complex(rng, 100, 100) + 100.0 * np.eye(100)
    b = random_complex(rng, 100)
    direct = linalg.lu_solve(linalg.lu_factor(a), b)
    x, report = linalg.gmres(lambda v: a @ v, b, restart=50, tol=1e-10, maxiter=500)
    assert report.converged
    assert np.linalg.norm(x - direct) / np.linalg.norm(direct) <= 1e-5


def test_gmres_history_monotone_within_cycles():
    rng = np.random.default_rng(23)
    a = random_complex(rng, 60, 60) + 8.0 * np.eye(60)
    b = random_complex(rng, 60)
    restart = 5
    _, report = linalg.gmres(lambda v: a @ v, b, restart=restart, tol=1e-10, maxiter=200)
    hist = report.residual_history
    # entry 0 is the initial residual; each cycle then appends up to
    # ``restart`` entries, non-increasing inside the cycle
    for cycle_start in range(1, hist.size, restart):
        seg = hist[cycle_start : cycle_start + restart]
        assert np.all(np.diff(seg) <= 1e-14)


def test_gmres_left_preconditioning():
    rng = np.random.default_rng(31)
    a = random_complex(rng, 40, 40) + 40.0 * np.eye(40)
    b = random_complex(rng, 40)
    factors = linalg.lu_factor(a)
    x, report = linalg.gmres(
        lambda v: a @ v, b, restart=20, tol=1e-10,
        left_precond=lambda v: linalg.lu_solve(factors, v),
    )
    assert report.converged
    assert report.iterations <= 2
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-8


def test_gmres_maxiter_reports_not_converged():
    rng = np.random.default_rng(5)
    # eigenvalues spread over orders of magnitude: slow Krylov convergence
    a = np.diag(np.logspace(0, 6, 80)).astype(complex) + 0.5 * random_complex(rng, 80, 80)
    b = random_complex(rng, 80)
    x, report = linalg.gmres(lambda v: a @ v, b, restart=10, tol=1e-12, maxiter=3)
    assert not report.converged
    assert report.iterations == 3
    assert report.residual_history.size == 4


def test_gmres_zero_rhs():
    x, report = linalg.gmres(lambda v: v, np.zeros(3), restart=5, tol=1e-8)
    assert report.converged
    assert report.iterations == 0
    assert np.array_equal(x, np.zeros(3))


def test_gmres_validation():
    with pytest.raises(ValueError):
        linalg.gmres(lambda v: v, np.ones(3), restart=0)
    with pytest.raises(ValueError):
        linalg.gmres(lambda v: v, np.ones((3, 2)))
    # tol = 2 once returned x = 0 as converged after no iteration
    for tol in (2.0, 1.0, 0.0, -1.0):
        with pytest.raises(ValueError, match=r"tolerance must be in \(0, 1\)"):
            linalg.gmres(lambda v: v, np.ones(3), tol=tol)
    for tol in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            linalg.gmres(lambda v: v, np.ones(3), tol=tol)
    with pytest.raises(ValueError, match="restart must be at least 1"):
        linalg.gmres(lambda v: v, np.ones(3), restart=0)
    with pytest.raises(ValueError, match="maxiter must be nonnegative"):
        linalg.gmres(lambda v: v, np.ones(3), maxiter=-1)


def test_eigenvalues_diagonal():
    d = np.array([3.0 + 1.0j, -2.0, 0.5j])
    got = np.sort_complex(linalg.eigenvalues(np.diag(d)))
    assert_allclose(got, np.sort_complex(d), atol=1e-14)


def test_eigenvalues_rotation_pair():
    got = np.sort_complex(linalg.eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    assert_allclose(got, [-1.0j, 1.0j], atol=1e-14)


def test_eigenvalues_companion_cubic():
    # companion of x^3 - 6 x^2 + 11 x - 6 = (x-1)(x-2)(x-3)
    companion = np.array([
        [6.0, -11.0, 6.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ])
    got = np.sort(linalg.eigenvalues(companion).real)
    assert_allclose(got, [1.0, 2.0, 3.0], atol=1e-10)
    assert np.max(np.abs(linalg.eigenvalues(companion).imag)) <= 1e-10


def test_eigenvalues_dimension_guard():
    with pytest.raises(ValueError):
        linalg.eigenvalues(np.zeros((3001, 3001)))


def test_eigenvalues_similarity_invariance():
    rng = np.random.default_rng(41)
    a = random_complex(rng, 40, 40)
    s = np.eye(40) + 0.1 * random_complex(rng, 40, 40)
    transformed = np.linalg.solve(s, a @ s)
    ea = linalg.eigenvalues(a)
    eb = linalg.eigenvalues(transformed)
    perm = linalg.match_eigenvalues(ea, eb)
    scale = np.max(np.abs(ea))
    assert np.max(np.abs(ea - eb[perm])) / scale <= 1e-6


def test_match_eigenvalues_recovers_permutation():
    rng = np.random.default_rng(43)
    a = random_complex(rng, 30)
    shuffle = rng.permutation(30)
    perm = linalg.match_eigenvalues(a, a[shuffle])
    assert np.array_equal(np.sort(perm), np.arange(30))
    assert np.max(np.abs(a - a[shuffle][perm])) == 0.0
    with pytest.raises(ValueError):
        linalg.match_eigenvalues(a, a[:-1])


def test_match_eigenvalues_holds_no_distance_matrix():
    """Matching two spectra of 2000 values peaks, by tracemalloc, at no
    more than a tenth of one complex 2000 x 2000 matrix, and gives the
    permutation of the greedy rule on the whole distance matrix."""
    n = 2000
    rng = np.random.default_rng(47)
    a = random_complex(rng, n)
    b = (a + 1e-3 * random_complex(rng, n))[rng.permutation(n)]
    tracemalloc.start()
    try:
        perm = linalg.match_eigenvalues(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * n * n * np.dtype(complex).itemsize
    dist = np.abs(a[:, None] - b[None, :])
    expected = np.empty(n, dtype=int)
    for i in np.argsort(-np.abs(a)):
        expected[i] = np.argmin(dist[i])
        dist[:, expected[i]] = np.inf
    assert np.array_equal(perm, expected)


def test_inf_norm_values():
    assert linalg.inf_norm(np.eye(7)) == 1.0
    assert linalg.inf_norm(np.array([[1.0, -2.0], [3.0j, 0.0]])) == 3.0
    with pytest.raises(ValueError):
        linalg.inf_norm(np.ones(3))


def test_inf_norm_bits_do_not_depend_on_memory_order():
    # an LU solve returns Fortran-ordered rows; their norm must equal the
    # norm of the same rows in C order to the last bit
    a = random_complex(np.random.default_rng(3), 40, 300)
    assert linalg.inf_norm(np.asfortranarray(a)) == linalg.inf_norm(a)
