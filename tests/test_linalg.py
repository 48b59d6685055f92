"""LU, GMRES, eigenvalues and norms."""

import itertools
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from multiscat import bem, cli, formulations, geometry, linalg


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


def test_gmres_stopped_at_maxiter_repeats_the_start_of_a_longer_run():
    """A run capped at m iterations makes the first m Arnoldi steps of a
    longer run with the same restart, below the restart length (where the
    basis buffer is narrowed to m) and across a restart alike."""
    rng = np.random.default_rng(11)
    # unit eigenvalues under a strong upper triangle: far from normal, slow
    a = np.eye(30) + 0.5 * np.triu(random_complex(rng, 30, 30), 1)
    b = random_complex(rng, 30)
    _, longer = linalg.gmres(lambda v: a @ v, b, restart=5, tol=1e-12, maxiter=40)
    assert longer.iterations > 12
    for m in (3, 5, 7, 12):
        _, capped = linalg.gmres(lambda v: a @ v, b, restart=5, tol=1e-12, maxiter=m)
        assert capped.iterations == m and not capped.converged
        assert np.array_equal(capped.residual_history, longer.residual_history[:m + 1])


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


def optimal_worst_distance(a, b):
    """The least worst relative distance over every pairing, written out: each
    side padded to the larger count of values other than exact ones with its
    lowest-index ones, and every permutation of the padded core tried."""
    m = max(np.count_nonzero(a != 1.0), np.count_nonzero(b != 1.0))

    def padded(x):
        ones = np.flatnonzero(x == 1.0)
        take = m - np.count_nonzero(x != 1.0)
        return np.sort(np.concatenate([np.flatnonzero(x != 1.0), ones[:take]]))

    rows, cols = padded(a), padded(b)
    return min(worst_distance(a[rows], b[list(p)]) for p in itertools.permutations(cols))


def worst_distance(a, b):
    """max |b - a| / |a|, 0 from a zero to a zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(b - a) / np.abs(a)
    return float(np.max(np.where(a == b, 0.0, rel), initial=0.0))


def test_match_eigenvalues_holds_distances_between_other_values_only():
    """Matching two spectra of 2000 values, 200 of them other than 1, peaks,
    by tracemalloc, within two complex 200 x 200 matrices, the room
    ``cli._peak_bytes`` gives it, and pairs each value with its perturbed
    copy.  A first call loads scipy.sparse, which is no buffer."""
    n, m = 2000, 200
    rng = np.random.default_rng(47)
    a = np.concatenate([random_complex(rng, m), np.ones(n - m, dtype=complex)])
    shuffle = rng.permutation(n)
    b = (a + 1e-3 * (a != 1.0) * random_complex(rng, n))[shuffle]
    linalg.match_eigenvalues(a, b)
    tracemalloc.start()
    try:
        perm = linalg.match_eigenvalues(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * m * m * np.dtype(complex).itemsize
    assert np.array_equal(shuffle[perm[:m]], np.arange(m))


def test_match_eigenvalues_is_optimal():
    """On random spectra with exact-1 tails of unequal lengths, placed
    anywhere, and with ties (repeated values, values of modulus exactly 1,
    zeros, equal distances to 1), the matching's worst relative distance is
    the least over every pairing; a closest-pair-first rule misses it in
    322 of these 2000 cases."""
    rng = np.random.default_rng(53)
    pool = np.array([-1.0, 1j, -1j, 2.0, 0.0, 0.5, 1.5, 1.0 + 1.0j, 1.0 - 1.0j, 1.0 + 1e-12])
    for _ in range(2000):
        n = int(rng.integers(1, 8))

        def spectrum():
            r = int(rng.integers(0, n + 1))
            values = (pool[rng.integers(0, pool.size, r)] if rng.random() < 0.5
                      else 1.0 + random_complex(rng, r))
            values = np.concatenate([values, np.ones(n - r, dtype=complex)])
            return values[rng.permutation(n)] if rng.random() < 0.5 else values

        a, b = spectrum(), spectrum()
        if rng.random() < 0.2:
            b = a[rng.permutation(n)]
        perm = linalg.match_eigenvalues(a, b)
        assert np.array_equal(np.sort(perm), np.arange(n))
        assert worst_distance(a, b[perm]) == optimal_worst_distance(a, b)


def test_match_eigenvalues_on_a_chain_of_nearest_values():
    """On a chain x_0 < y_0 < x_1 < y_1 < ... of growing gaps, whose only
    mutual nearest pair is at one end (m rounds of mutual nearest neighbours),
    the worst distance is the optimum, the first gap over x_0, x_0's
    nearest-neighbour bound."""
    m = 1000
    z = 2.0 + np.cumsum(1.0 + 1e-3 * np.arange(2 * m))
    a, b = z[0::2].astype(complex), z[1::2][::-1].astype(complex)
    perm = linalg.match_eigenvalues(a, b)
    assert np.array_equal(np.sort(perm), np.arange(m))
    assert worst_distance(a, b[perm]) == (z[1] - z[0]) / z[0]


def test_match_eigenvalues_pairs_values_at_least_summed_distance_within_the_optimum():
    """Among the pairings whose worst relative distance is the optimum, the
    matching's summed distance is the least (scipy's dense assignment, with
    the pairs beyond the optimum barred), to the weights' steps of 2^-20 of
    the optimum per pair, on clustered spectra with near ties.  On the chain
    of growing gaps x_0 must take y_0, and then each x_i takes y_i, its
    neighbour above, where a bottleneck matching alone paired 11.036 with
    14.066 while 12.045 went to 13.055."""
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(59)
    for trial in range(40):
        m = int(rng.integers(2, 60))
        a = rng.choice([0.5, 1.0 + 1e-12, 1.5j, 2.0], m) + 1e-3 * random_complex(rng, m)
        b = (a + rng.choice([0.0, 1e-13, 1e-4], m) * random_complex(rng, m))[rng.permutation(m)]
        perm = linalg.match_eigenvalues(a, b)
        worst = worst_distance(a, b[perm])
        dist = np.abs(b[None, :] - a[:, None]) / np.abs(a[:, None])
        rows, cols = linear_sum_assignment(np.where(dist <= worst, dist, 1e6))
        assert np.sum(dist[np.arange(m), perm]) <= np.sum(dist[rows, cols]) + m * worst * 2.0 ** -20
    m = 1000
    z = 2.0 + np.cumsum(1.0 + 1e-3 * np.arange(2 * m))
    a, b = z[0::2].astype(complex), z[1::2][::-1].astype(complex)
    perm = linalg.match_eigenvalues(a, b)
    assert np.array_equal(b[perm], z[1::2])


def test_match_eigenvalues_takes_the_closest_pair_not_the_largest_value_first():
    """Visiting 1.002 first would take 0.975 for it and leave 0.965 with
    1.03, a relative error of 6.7e-2; the optimal matching keeps it at 2.8e-2."""
    a, b = np.array([1.002, 0.965]), np.array([0.975, 1.03])
    perm = linalg.match_eigenvalues(a, b)
    assert np.array_equal(perm, [1, 0])
    assert np.max(np.abs(b[perm] - a) / np.abs(a)) < 3e-2


def test_match_eigenvalues_rejects_non_finite_values_and_takes_zeros():
    """A NaN or an infinity is refused, not paired; a zero is 0 from a zero
    and infinitely far from anything else, with no warning."""
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            linalg.match_eigenvalues([1.5, 2.0, bad], [2.0, 1.5, 3.0])
        with pytest.raises(ValueError, match="finite"):
            linalg.match_eigenvalues([2.0, 1.5, 3.0], [1.5, 2.0, bad])
    a, b = np.array([0.0, 2.0, 1.0, 3.0]), np.array([3.1, 1.0, 2.0, 0.0])
    assert np.array_equal(linalg.match_eigenvalues(a, b), [3, 2, 1, 0])
    for tiny in (0.0, 1e-310):  # 3 / 1e-310 overflows to inf
        assert np.array_equal(linalg.match_eigenvalues([tiny, 2.0], [3.0, 2.0]), [0, 1])


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


def test_no_scipy_linalg_call_runs_on_a_worker_thread(desk, tmp_path, monkeypatch):
    """Assembly and field evaluation run on a pool of threads, but every LU,
    solve, eigenvalue and QR call stays on the calling thread (see the
    module docstring): through assembly, the fields of all four systems and
    a whole validate-disk."""
    threads = []
    for module, name in ((linalg, "lu_factor"), (linalg, "lu_solve"), (linalg, "eigenvalues"),
                         (scipy.linalg, "qr")):
        def recording(*args, _call=getattr(module, name), _name=name, **kwargs):
            threads.append((_name, threading.get_ident()))
            return _call(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    mesh = geometry.mesh_scene(desk, ppw=6)
    systems = formulations.systems(formulations.FORMULATION_KINDS, desk, mesh)
    points = np.array([[7.0, 7.0], [-7.0, 3.0], [0.0, -8.0]])
    formulations.scattered_fields(systems.values(), [np.ones(mesh.n_nodes)] * 4, points)
    bem.assemble_operators(mesh, desk.k)
    assert cli.main(["validate-disk", "--out", str(tmp_path)]) == 0
    assert {name for name, _ in threads} == {"lu_factor", "lu_solve"}
    assert {thread for _, thread in threads} == {threading.get_ident()}


def test_match_eigenvalues_tests_each_level_once_on_a_clustered_spectrum(monkeypatch):
    """Values in a few tight clusters repeat their distances, so the sorted
    levels repeat; the bisection tests each distinct level at most once, in
    about log2 of their count Hopcroft-Karp calls, and still takes the least
    perfect level: the worst pair of the matching is the least worst pair
    of any matching, found here level by level."""
    rng = np.random.default_rng(4)
    centres = rng.uniform(1.0, 3.0, 6) + 1j * rng.uniform(-1.0, 1.0, 6)
    a = np.repeat(centres, 12)
    b = a[rng.permutation(a.size)] + 1e-3 * np.round(rng.standard_normal(a.size), 1)
    tested = []
    matching = scipy.sparse.csgraph.maximum_bipartite_matching

    def recording(graph, *args, **kwargs):
        tested.append(graph.nnz)
        return matching(graph, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csgraph, "maximum_bipartite_matching", recording)
    perm = linalg.match_eigenvalues(a, b)
    assert len(tested) == len(set(tested))
    dist = np.abs(a[:, None] - b[None, :]) / np.abs(a[:, None])
    levels = np.unique(dist)
    assert len(tested) <= np.ceil(np.log2(levels.size)) + 1
    worst = np.max(dist[np.arange(a.size), perm])
    below = levels[levels < worst][-1]
    monkeypatch.setattr(scipy.sparse.csgraph, "maximum_bipartite_matching", matching)
    found = matching(scipy.sparse.csr_array(dist <= below))
    assert found.min() < 0  # no perfect matching below the chosen level
