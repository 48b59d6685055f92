"""Dense complex linear algebra: LU, restarted GMRES, eigenvalues, norms.

LU factorization and the eigenvalue solve delegate to LAPACK through scipy
and numpy (Hessenberg reduction plus shifted QR); GMRES is written out here
because the solver needs per-iteration preconditioned residual histories
and callback operators, which canned wrappers do not expose cleanly.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import scipy.linalg

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


def _require_square(a: np.ndarray, who: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{who} requires a square matrix, got shape {a.shape}")
    return a


def lu_factor(a) -> LuFactors:
    a = _require_square(a, "lu_factor")
    if not np.all(np.isfinite(a)):
        raise ValueError("lu_factor requires finite entries")
    with warnings.catch_warnings():
        # an exactly singular input becomes SingularMatrixError below; the
        # LAPACK wrapper's warning about it is redundant
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.any(pivots < _PIVOT_FLOOR):
        where = int(np.argmin(pivots))
        raise SingularMatrixError(f"singular matrix: zero pivot at index {where}")
    return LuFactors(lu=lu, piv=piv, n=a.shape[0])


def lu_solve(factors: LuFactors, b, overwrite: bool = False):
    """x with A x = b; in place if ``overwrite`` and ``b`` is complex, F-ordered."""
    b = np.asarray(b)
    if b.shape[0] != factors.n:
        raise ValueError(
            f"right-hand side has leading dimension {b.shape[0]}, expected {factors.n}"
        )
    return scipy.linalg.lu_solve((factors.lu, factors.piv), b, overwrite_b=overwrite)


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
        return np.zeros(n, dtype=complex), GmresReport(
            iterations=0, residual_history=np.array([0.0]), converged=True
        )

    # no cycle runs more than maxiter inner iterations, so a longer basis
    # would never be filled
    restart = max(1, min(restart, maxiter))
    x = np.zeros(n, dtype=complex)
    history = [1.0]
    total = 0
    converged = False
    v_basis = np.empty((n, restart + 1), dtype=complex)

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

    return x, GmresReport(
        iterations=total,
        residual_history=np.array(history),
        converged=converged,
    )


def check_eig_size(n: int) -> None:
    """Raise ValueError when n unknowns exceed the eigenvalue limit."""
    if n > EIG_DIM_LIMIT:
        raise ValueError(f"eigenvalues are limited to {EIG_DIM_LIMIT} unknowns, got {n}")


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square matrix of dimension at most ``EIG_DIM_LIMIT``."""
    a = _require_square(a, "eigenvalues")
    check_eig_size(a.shape[0])
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


def match_eigenvalues(a, b) -> np.ndarray:
    """Greedy nearest-neighbor pairing of two spectra.

    Returns a permutation ``perm`` with ``b[perm[i]]`` matched to ``a[i]``,
    assigning the largest-magnitude eigenvalues of ``a`` first.  Greedy is
    adequate here because the spectra being compared are nearly identical.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("match_eigenvalues requires two equal-length sequences")
    available = np.ones(b.size, dtype=bool)
    perm = np.empty(a.size, dtype=int)
    for i in np.argsort(-np.abs(a)):
        row = np.where(available, np.abs(a[i] - b), np.inf)
        j = int(np.argmin(row))
        perm[i] = j
        available[j] = False
    return perm
