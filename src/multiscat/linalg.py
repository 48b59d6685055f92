"""Dense complex linear algebra: LU, restarted GMRES, eigenvalues, norms,
and the one memory probe every dense size is checked against.

LU factorization and the eigenvalue solve delegate to LAPACK through scipy
and numpy (Hessenberg reduction plus shifted QR); GMRES is written out here
because the solver needs per-iteration preconditioned residual histories
and callback operators, which canned wrappers do not expose cleanly.

No ``scipy.linalg`` call may run on a worker thread: every LU, solve, QR
and eigenvalue call here and in the checks runs on the thread that called
into the package.  With scipy 1.17.1, two threads calling
``scipy.linalg.lu_solve`` on the same factors aborted the process
(``free(): invalid next size``), and so did per-obstacle solves on a pool.
Assembly and field evaluation, which run on a thread per CPU, call none.
"""

from __future__ import annotations

import dataclasses
import math
import os
import warnings

import numpy as np
import scipy

EIG_DIM_LIMIT = 3000
# restarted GMRES defaults: restart length, relative residual target and
# total inner iterations
GMRES_RESTART = 50
GMRES_TOL = 1e-6
GMRES_MAXITER = 1000
_PIVOT_FLOOR = 1e-300


class SingularMatrixError(ValueError):
    """Factorization hit an exactly singular pivot."""


class EigendecompositionError(RuntimeError):
    """The QR iteration failed to converge."""


@dataclasses.dataclass(frozen=True)
class LuFactors:
    """Packed LU factors with pivots, as produced by lu_factor."""

    lu: np.ndarray
    piv: np.ndarray
    n: int


@dataclasses.dataclass(frozen=True)
class GmresReport:
    """Convergence record: total inner iterations, the relative residual
    after each of them (index 0 is the initial 1.0), and whether the target
    tolerance was reached.  Residuals are measured in the norm induced by
    the left preconditioner when one is supplied."""

    iterations: int
    residual_history: np.ndarray
    converged: bool


def _available_memory() -> int:
    """Bytes of physical memory available: MemAvailable from /proc/meminfo,
    or all physical memory where that is not readable."""
    try:
        with open("/proc/meminfo") as handle:
            fields = dict(line.split(":", 1) for line in handle)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(nbytes: int, what: str) -> None:
    """Raise ValueError, naming ``what``, when ``nbytes`` exceed the
    available memory; called before the bytes are allocated."""
    available = _available_memory()
    if nbytes > available:
        raise ValueError(f"{what} needs about {nbytes / 2**30:.1f} GiB, more than the "
                         f"{available / 2**30:.1f} GiB of physical memory available")


def _require_square(a: np.ndarray, who: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{who} requires a square matrix, got shape {a.shape}")
    return a


def lu_factor(a, overwrite: bool = False) -> LuFactors:
    """LU factors of a square matrix; in place if ``overwrite`` and ``a`` is
    complex, F-ordered."""
    a = _require_square(a, "lu_factor")
    if not np.all(np.isfinite(a)):
        raise ValueError("lu_factor requires finite entries")
    with warnings.catch_warnings():
        # an exactly singular input becomes SingularMatrixError below; the
        # LAPACK wrapper's warning about it is redundant
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=overwrite, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.any(pivots < _PIVOT_FLOOR):
        where = int(np.argmin(pivots))
        raise SingularMatrixError(f"singular matrix: zero pivot at index {where}")
    return LuFactors(lu=lu, piv=piv, n=a.shape[0])


def lu_solve(factors: LuFactors, b, overwrite: bool = False, adjoint: bool = False):
    """x with A x = b, or A^H x = b if ``adjoint``; in place if ``overwrite``
    and ``b`` is complex, F-ordered."""
    b = np.asarray(b)
    if b.shape[0] != factors.n:
        raise ValueError(
            f"right-hand side has leading dimension {b.shape[0]}, expected {factors.n}"
        )
    return scipy.linalg.lu_solve((factors.lu, factors.piv), b, trans=2 if adjoint else 0,
                                  overwrite_b=overwrite)


def _givens(a: complex, b: complex):
    """Unitary 2x2 that maps (a, b) to (t, 0) with t = hypot(|a|, |b|)."""
    t = np.hypot(abs(a), abs(b))
    return np.array([[np.conj(a), np.conj(b)], [-b, a]]) / t, t


def check_gmres_settings(restart, tol, maxiter) -> None:
    """Raise ValueError unless restart >= 1, tol is finite in (0, 1) and maxiter >= 0."""
    if not restart >= 1:
        raise ValueError("restart must be at least 1")
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol}")
    if not 0.0 < tol < 1.0:
        raise ValueError("tolerance must be in (0, 1)")
    if not maxiter >= 0:
        raise ValueError("maxiter must be nonnegative")


def gmres(apply, b, restart: int = GMRES_RESTART, tol: float = GMRES_TOL,
          maxiter: int = GMRES_MAXITER, left_precond=None):
    """Restarted GMRES on a callback operator, returning (x, GmresReport).

    ``apply`` and the optional ``left_precond`` map a vector to a vector.
    Orthogonalization is modified Gram-Schmidt with a second pass whenever
    the norm drops by more than 1/sqrt(2) in one step.  Hitting ``maxiter``
    total inner iterations yields a non-converged report, not an exception.
    A run stopped at ``maxiter = m`` repeats the first m Arnoldi steps of
    any longer run with the same ``restart`` (for m < restart too: the clamp
    below narrows only the basis buffer), so its history is the first m + 1
    entries of the longer run's; only where m ends one of its cycles may the
    longer run, testing the explicit residual, call converged what this run
    does not.
    """
    check_gmres_settings(restart, tol, maxiter)
    b = np.asarray(b, dtype=complex)
    if b.ndim != 1:
        raise ValueError("gmres right-hand side must be a vector")
    pre = left_precond if left_precond is not None else (lambda v: v)
    n = b.size
    pb = np.asarray(pre(b), dtype=complex)
    beta0 = np.linalg.norm(pb)
    if beta0 == 0.0:
        return np.zeros(n, dtype=complex), GmresReport(0, np.array([0.0]), converged=True)

    restart = max(1, min(restart, maxiter))
    x = np.zeros(n, dtype=complex)
    history = [1.0]
    total = 0
    converged = False
    v_basis = np.empty((n, restart + 1), dtype=complex)  # the GMRES basis of cli._peak_bytes

    while True:
        residual = pb if total == 0 else np.asarray(pre(b - apply(x)), dtype=complex)
        beta = np.linalg.norm(residual)
        if beta / beta0 <= tol:
            converged = True
            break
        if total >= maxiter:
            break
        # fresh per cycle: the final triangular solve reads h[:m, :m] as a
        # full matrix, so entries below the subdiagonal must be exact zeros
        h = np.zeros((restart + 1, restart), dtype=complex)
        v_basis[:, 0] = residual / beta
        g = np.zeros(restart + 1, dtype=complex)
        g[0] = beta
        rotations = []
        m = 0
        for j in range(restart):
            if total >= maxiter:
                break
            # force a copy: a callback may hand back its input unchanged, and
            # w is modified in place below
            w = np.array(pre(apply(v_basis[:, j])), dtype=complex, copy=True)
            norm_before = np.linalg.norm(w)
            for i in range(j + 1):
                h[i, j] = np.vdot(v_basis[:, i], w)
                w -= h[i, j] * v_basis[:, i]
            if np.linalg.norm(w) < norm_before / np.sqrt(2.0):
                for i in range(j + 1):
                    extra = np.vdot(v_basis[:, i], w)
                    h[i, j] += extra
                    w -= extra * v_basis[:, i]
            w_norm = np.linalg.norm(w)
            h[j + 1, j] = w_norm
            for i, rot in enumerate(rotations):
                h[i : i + 2, j] = rot @ h[i : i + 2, j]
            rot, t = _givens(h[j, j], h[j + 1, j])
            rotations.append(rot)
            h[j, j] = t
            h[j + 1, j] = 0.0
            g[j : j + 2] = rot @ g[j : j + 2]
            total += 1
            m = j + 1
            rel = abs(g[j + 1]) / beta0
            history.append(rel)
            if rel <= tol:
                converged = True
                break
            if w_norm == 0.0:
                break
            v_basis[:, j + 1] = w / w_norm
        if m > 0:
            y = np.linalg.solve(h[:m, :m], g[:m])
            x += v_basis[:, :m] @ y
        if converged or total >= maxiter:
            break

    return x, GmresReport(total, np.array(history), converged)


def check_eig_dim(m: int) -> None:
    """Raise ValueError when m exceeds ``EIG_DIM_LIMIT``, the largest
    dimension ``eigenvalues`` takes."""
    if m > EIG_DIM_LIMIT:
        raise ValueError(f"eigenvalues are limited to dimension {EIG_DIM_LIMIT}, got {m}")


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square matrix of dimension at most ``EIG_DIM_LIMIT``."""
    a = _require_square(a, "eigenvalues")
    check_eig_dim(a.shape[0])
    if not np.all(np.isfinite(a)):
        raise ValueError("eigenvalues requires finite entries")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"QR iteration did not converge: {exc}") from exc


def inf_norm(a) -> float:
    """Maximum absolute row sum, the same bits whatever the memory order of ``a``."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"inf_norm requires a matrix, got ndim {a.ndim}")
    return float(np.max(np.sum(np.ascontiguousarray(np.abs(a)), axis=1)))


# Steps per largest distance of the weights of the least-sum matching
# (``match_eigenvalues``).  Whole-number weights keep every sum exact: on
# float weights that tie to a rounding, scipy's min_weight_full_bipartite_
# matching looped forever (a 7 x 7 case with two values 1e-12 apart).  Its
# augmenting row reduction lowers prices by weight differences, so its time
# grows with the steps: on 6100 random clustered spectra (m up to 600, with
# zeros and near ties) the step took 2.0, 3.0, 5.1 and 13.0 s in all at
# 2^20, 2^22, 2^24 and 2^26 steps, 0.11, 0.19, 0.47 and 2.4 s at most, and
# one 20-value case took 5 s at 2^30.  At 2^20 the summed distance is least
# to 2^-20 of the largest per pair, and sums stay below 2^53 for m < 2^31.
_MATCH_STEPS = 2.0 ** 20


def match_eigenvalues(a, b) -> np.ndarray:
    """The optimal matching of two finite spectra: the permutation ``perm``,
    ``b[perm[i]]`` matched to ``a[i]``, of least worst relative distance
    |b[perm[i]] - a[i]| / |a[i]| (0 from a zero to a zero), and of least
    summed distance among those.

    Exact ones, the n - r of a preconditioned spectrum, enter no distance:
    with m the larger count of other values, each side is padded to m with
    its lowest-index ones, and the ones left pair up in index order.  The
    least level at which the m x m pairs hold a perfect matching is bisected
    from the nearest-neighbour bound, tried first, by Hopcroft-Karp, whose
    start gives each row, nearest first, its nearest free column.  The pairs
    within that level are then matched at least summed weight 1 + distance
    (a sparse graph drops zero weights), in whole steps of 1 /
    ``_MATCH_STEPS`` of the largest, a pair infinitely apart (a zero with
    another value) weighing more than every finite pairing together, so
    each row pairs values as near as the worst pair allows.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim != 1 or a.shape != b.shape or not np.isfinite(np.r_[a, b]).all():
        raise ValueError("match_eigenvalues requires two equal-length sequences of finite values")
    m = max(np.count_nonzero(a != 1.0), np.count_nonzero(b != 1.0))
    # each side's values other than 1, then its ones, each in index order
    rows, cols = np.argsort(a == 1.0, kind="stable"), np.argsort(b == 1.0, kind="stable")
    perm = np.empty(a.size, dtype=int)
    perm[rows[m:]] = cols[m:]
    rows, cols = np.sort(rows[:m]), np.sort(cols[:m])
    if m == 0:  # before scipy.sparse is loaded
        return perm
    # distances, columns, levels and a graph: within cli._peak_bytes' 2 min(r, 3000)^2 entries
    dist = np.abs(a[rows, None] - b[None, cols])
    with np.errstate(divide="ignore", over="ignore"):  # from a zero: 0 to a zero, else inf
        np.divide(dist, np.abs(a[rows, None]), out=dist, where=dist > 0)
    rank = np.argsort(dist.min(axis=1), kind="stable")
    rows, dist, bound = rows[rank], dist[rank], dist.min(axis=0).max()  # rows nearest first
    order = np.argsort(dist, axis=1, kind="stable").astype(np.int32)  # columns nearest first
    dist = np.take_along_axis(dist, order, axis=1)
    levels = np.sort(dist, axis=None)

    def graph(within, data):
        """The pairs of ``within``, a prefix of each row, carrying ``data``."""
        return scipy.sparse.csr_array((data, order[within], np.cumsum(
            np.r_[0, np.count_nonzero(within, axis=1)], dtype=np.int32)), shape=(m, m))

    csgraph = scipy.sparse.csgraph
    mid = lo = np.searchsorted(levels, max(bound, dist[:, 0].max()))  # nearest-neighbour bound
    hi = levels.size - 1  # the top level, holding every pair, is perfect
    while lo < hi:
        within = dist <= levels[mid]
        found = csgraph.maximum_bipartite_matching(
            graph(within, np.ones(np.count_nonzero(within), dtype=bool)))
        # past every copy of a failed level, to the first copy of a passed one
        if found.min() >= 0:
            hi = np.searchsorted(levels, levels[mid], "left")
        else:
            lo = np.searchsorted(levels, levels[mid], "right")
        mid = (lo + hi) // 2
    within = dist <= levels[lo]
    del levels  # room for the weights
    # 1 + distance in whole steps, and an infinite one above every finite pairing's sum
    weights = dist[within]
    finite = np.isfinite(weights)
    top = np.max(weights, where=finite, initial=0.0)
    if top > 0.0:
        np.multiply(weights, _MATCH_STEPS / top, out=weights, where=finite)
        np.rint(weights, out=weights, where=finite)
    weights[~finite] = (m + 1) * (_MATCH_STEPS + 1.0)
    weights += 1.0
    _, match = csgraph.min_weight_full_bipartite_matching(graph(within, weights))
    perm[rows] = cols[match]
    return perm
