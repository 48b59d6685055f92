"""Numerical checks that single-scattering preconditioning merges the systems.

Two exact statements drive this module.  First, the preconditioned direct
systems coincide: left-multiplying the EFIE, MFIE and CFIE matrices by the
inverses of their own diagonal (single-obstacle) blocks yields one and the
same operator, up to discretization error.  Second, the preconditioned BW
system is similar to that common operator through T = A_E^{-1} A_BW; since
P_BW = D_BW^{-1} A_BW with D_BW the block diagonal of A_BW, the conjugate is
T P_BW T^{-1} = A_E^{-1} A_BW D_BW^{-1} A_E, which needs one LU of A_E and
never T itself.  Both are checked here at configurable scale, together with
the spectral and GMRES-history consequences.

The checks read every system as a view of L, N and the mass (see
``formulations``) and work by obstacle row blocks: row block p of P_X is
LU_p^{-1} A_X[rows_p, :], formed from the operators and dropped once used,
as is LU_p; ``cli._peak_bytes`` counts what each check holds.  P_X = I + K_X,
where the coupling K_X between separated obstacles is numerically of low
rank r, so P_X's eigenvalues are 1 plus those of an r x r matrix and n - r
ones.  GMRES applies each system as products with L, N and the mass bands.

The desk configuration (three obstacles, one of each shape, around 400
unknowns) keeps every check in the seconds range; the paper-scale
configuration (thirty obstacles, k=20) reproduces the full experiment and is
meant for occasional runs, not CI.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np
import scipy

from . import formulations, geometry, linalg

logger = logging.getLogger(__name__)

DIRECT_KINDS = ("EFIE", "MFIE", "CFIE")
DIRECT_PAIRS = (("EFIE", "MFIE"), ("MFIE", "CFIE"), ("EFIE", "CFIE"))

# Frozen desk-scale regression thresholds; calibrated once against the
# ppw-refinement behavior of the desk configuration, then kept fixed.
DESK_DIRECT_THRESHOLD = 5e-2
DESK_SIMILARITY_THRESHOLD = 1e-2
DESK_SPECTRUM_THRESHOLD = 3e-2
# A coupling's pivoted QR keeps the columns with |R_ii| > COUPLING_RANK_TOL
# |R_11| (``_coupling_factors``).  On desk (seed 0, ppw 10 and 60) the
# spectra then differ from dense eigensolves by about 15 times the tolerance
# down to 1e-13, where they meet the dense solve's own rounding (2e-12);
# at 1e-13 the rank r is 78-84 of 149-887 unknowns, and 1e-14 adds columns
# with no consistent gain.
COUPLING_RANK_TOL = 1e-13


# One obstacle of each shape, as the desk and paper presets place them.
_SHAPES = (
    geometry.Shape(kind="ellipse", a=1.0, b=0.6),
    geometry.Shape(kind="rounded_rectangle", a=0.9, b=0.7, p=8),
    geometry.Shape(kind="kite", s=0.8),
)


def _preset(k: float, side: float, copies: int, seed: int,
            size_jitter: float = 0.0) -> geometry.Scene:
    """``copies`` obstacles of each shape placed from ``seed`` in a
    side x side box at wavenumber k, the wave incident along +y."""
    return geometry.generate_scene(geometry.Scene(
        k=k, beta=(0.0, 1.0), obstacles=_SHAPES * copies, box=(0.0, 0.0, side, side),
        min_center_distance=3.0, seed=seed), size_jitter)


def desk_scene(seed: int = 0) -> geometry.Scene:
    """Three obstacles, one of each shape, in a 12 x 12 box at k=5."""
    return _preset(5.0, 12.0, 1, seed)


def paper_scene(seed: int = 0) -> geometry.Scene:
    """Thirty obstacles, ten of each shape, in a 60 x 60 box at k=20.

    Characteristic sizes are drawn around 1 (jitter 0.3), matching the
    qualitative setup of the full-scale experiment.
    """
    return _preset(20.0, 60.0, 10, seed, size_jitter=0.3)


@dataclasses.dataclass(frozen=True)
class TheoremReport:
    """Relative infinity-norm differences with their thresholds and verdicts."""

    differences: dict[str, float]
    similarity_difference: float | None
    thresholds: dict[str, float]
    passed: dict[str, bool]


@dataclasses.dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of the four preconditioned matrices in one canonical row
    order: EFIE's sorted by (real, imag), every other formulation's in its
    matching to EFIE's, so LAPACK's output order never shows; the worst
    matched relative error with its threshold and verdict."""

    eigenvalues: dict[str, np.ndarray]
    matched_max_rel_error: float
    threshold: float
    passed: dict[str, bool]


@dataclasses.dataclass(frozen=True)
class SolveRecord:
    formulation: str
    preconditioned: bool
    iterations: int
    converged: bool
    residual_history: tuple[float, ...]

    @classmethod
    def of(cls, formulation: str, preconditioned: bool, report) -> "SolveRecord":
        """The record of one GMRES run's ``linalg.GmresReport``."""
        return cls(formulation, preconditioned, report.iterations, report.converged,
                   tuple(float(r) for r in report.residual_history))


@dataclasses.dataclass(frozen=True)
class ConvergenceReport:
    """GMRES records, plain then preconditioned per formulation, and their verdicts."""

    records: tuple[SolveRecord, ...]
    passed: dict[str, bool]

    def record(self, formulation: str, preconditioned: bool) -> SolveRecord:
        for rec in self.records:
            if rec.formulation == formulation and rec.preconditioned == preconditioned:
                return rec
        raise KeyError(f"no record for {formulation} preconditioned={preconditioned}")


def check_direct_equality(scene, mesh, alpha: float = formulations.ALPHA,
                          eta: complex | None = None, operators=None,
                          thresholds=None) -> TheoremReport:
    """Pairwise differences among the preconditioned EFIE/MFIE/CFIE matrices.

    Each difference is ||P_X - P_Y||_inf / ||P_Y||_inf with the denominator
    taken from the second formulation of the pair.  Both norms are the
    largest over the obstacles of their row blocks' norms.
    """
    systems = formulations.systems(DIRECT_KINDS, scene, mesh, alpha, eta, None, operators)
    if thresholds is None:
        thresholds = {f"{x}/{y}": DESK_DIRECT_THRESHOLD for x, y in DIRECT_PAIRS}
    apart = {f"{x}/{y}": 0.0 for x, y in DIRECT_PAIRS}
    norms = dict.fromkeys(DIRECT_KINDS, 0.0)
    for p in range(mesh.n_obstacles):
        rows = {kind: formulations.preconditioned_rows(system, p)  # cli._peak_bytes's 5 b n
                for kind, system in systems.items()}
        for x, y in DIRECT_PAIRS:
            apart[f"{x}/{y}"] = max(apart[f"{x}/{y}"], linalg.inf_norm(rows[x] - rows[y]))
        for kind, block in rows.items():
            norms[kind] = max(norms[kind], linalg.inf_norm(block))
        del rows, block
    differences = {f"{x}/{y}": apart[f"{x}/{y}"] / norms[y] for x, y in DIRECT_PAIRS}
    for key, value in differences.items():
        logger.info("preconditioned difference %s: %.3e", key, value)
    return TheoremReport(
        differences=differences,
        similarity_difference=None,
        thresholds=dict(thresholds),
        passed={key: value <= thresholds[key] for key, value in differences.items()},
    )


def check_bw_similarity(scene, mesh, eta_bw: complex | None = None, operators=None,
                        threshold: float = DESK_SIMILARITY_THRESHOLD) -> TheoremReport:
    """Conjugate the preconditioned BW matrix by T = A_E^{-1} A_BW and
    compare with the preconditioned EFIE matrix.

    Reports ||P_E - T P_BW T^{-1}||_inf / ||P_BW||_inf.  With
    P_BW = D_BW^{-1} A_BW, where D_BW is BW's block diagonal, the conjugate
    is exactly T P_BW T^{-1} = A_E^{-1} A_BW D_BW^{-1} A_E, so T is never
    formed and A_E is the only full-size matrix factored.
    """
    efie, bw = formulations.systems(("EFIE", "BW"), scene, mesh, eta_bw=eta_bw,
                                    operators=operators).values()
    n = mesh.n_nodes
    # both systems take their blocks from the mesh, so BW's block factors
    # apply to A_E's rows: row block p of D_BW^{-1} A_E is LU_p^{-1} A_E[lo:hi]
    p_bw_norm = 0.0
    inner = np.empty((n, n), dtype=complex)  # an n x n buffer of cli._peak_bytes
    for p in range(mesh.n_obstacles):
        lo, hi = mesh.block_range(p)
        lu = bw.block_lu(p)  # one LU for both of BW's solves
        p_bw_norm = max(p_bw_norm, linalg.inf_norm(linalg.lu_solve(lu, bw.rows(lo, hi))))
        inner[lo:hi] = linalg.lu_solve(lu, efie.rows(lo, hi))
    del lu  # not held while the product is formed
    # A_BW D_BW^{-1} A_E by row blocks, in Fortran order to be solved in place
    conjugated = np.empty((n, n), dtype=complex, order="F")  # an n x n buffer of cli._peak_bytes
    for p in range(mesh.n_obstacles):
        lo, hi = mesh.block_range(p)
        conjugated[lo:hi] = bw.rows(lo, hi) @ inner  # 2 b n row entries of cli._peak_bytes
    del inner
    try:
        efie_lu = linalg.lu_factor(efie.rows(0, n))  # takes inner's place in cli._peak_bytes
    except linalg.SingularMatrixError as exc:
        raise linalg.SingularMatrixError(
            f"the single-layer system matrix is singular, so the similarity "
            f"transport T is not defined; the wavenumber may be an irregular "
            f"frequency ({exc})"
        ) from exc
    conjugated = linalg.lu_solve(efie_lu, conjugated, overwrite=True)
    del efie_lu
    difference = 0.0
    for p in range(mesh.n_obstacles):
        lo, hi = mesh.block_range(p)
        p_efie = formulations.preconditioned_rows(efie, p)
        difference = max(difference, linalg.inf_norm(p_efie - conjugated[lo:hi]))
    difference /= p_bw_norm
    logger.info("BW similarity difference: %.3e", difference)
    return TheoremReport(
        differences={},
        similarity_difference=difference,
        thresholds={"EFIE/BW": threshold},
        passed={"EFIE/BW": difference <= threshold},
    )


def _coupling_factors(system, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, U) with row block p of P_X - I equal to U W^H, up to the
    truncation at ``COUPLING_RANK_TOL``.

    That row block is LU_p^{-1} C_p, where C_p is obstacle p's rows of A_X
    outside its own columns.  The pivoted QR C_p^H Pi = Q R gives W, the
    first r_p columns of Q with zeros in p's own rows: an orthonormal basis
    of C_p's numerical row space.  Then C_p W = Pi R[:r_p]^H, so
    U = LU_p^{-1} Pi R[:r_p]^H takes no second product with C_p.
    """
    n = system.n
    lo, hi = system.mesh.block_range(p)
    # C_p^H in Fortran order, factored in place; with Q, R and LU_p, cli._peak_bytes's 3 b n
    coupling_h = np.empty((n - (hi - lo), hi - lo), dtype=complex, order="F")
    np.conjugate(system.rows(lo, hi, 0, lo).T, out=coupling_h[:lo])
    np.conjugate(system.rows(lo, hi, hi, n).T, out=coupling_h[lo:])
    q, r, piv = scipy.linalg.qr(coupling_h, overwrite_a=True, mode="economic",
                                pivoting=True, check_finite=False)
    diagonal = np.abs(np.diagonal(r))  # empty with one obstacle: rank 0
    rank = int(np.count_nonzero(diagonal > COUPLING_RANK_TOL * diagonal[:1]))
    basis = np.zeros((n, rank), dtype=complex)  # cli._peak_bytes's bases, n r <= n^2 entries
    basis[:lo] = q[:lo, :rank]
    basis[hi:] = q[lo:, :rank]
    projected = np.empty((hi - lo, rank), dtype=complex)
    projected[piv] = r[:rank].conj().T
    # factored at rank 0 too: that LU is how a one-obstacle spectrum refuses a singular block
    return basis, linalg.lu_solve(system.block_lu(p), projected)


def _preconditioned_spectrum(system) -> np.ndarray:
    """The n eigenvalues of P_X = I + K_X, from its coupling factors.

    K_X = U W^H, with U block diagonal (obstacle p's block U_p) and W every
    obstacle's basis side by side (``_coupling_factors``).  By Sylvester's
    determinant identity K_X's nonzero eigenvalues are those of the r x r
    matrix S = W^H U, so the spectrum is 1 + eig(S) followed by n - r
    entries of exactly 1; S's columns of obstacle q are W[rows of q]^H U_q.
    """
    offsets = system.mesh.block_offsets
    bases, solved = zip(*(_coupling_factors(system, p)
                          for p in range(system.mesh.n_obstacles)))
    reduced = np.hstack([np.hstack([basis[lo:hi] for basis in bases]).conj().T @ u
                         for lo, hi, u in zip(offsets, offsets[1:], solved)])
    return np.concatenate([1.0 + linalg.eigenvalues(reduced),
                           np.ones(system.n - reduced.shape[0], dtype=complex)])


def check_spectra(scene, mesh, alpha: float = formulations.ALPHA,
                  eta: complex | None = None, eta_bw: complex | None = None,
                  operators=None) -> SpectrumReport:
    """Eigenvalues of the four preconditioned matrices, greedily matched.

    Each spectrum comes from the low-rank coupling of its system
    (``_preconditioned_spectrum``): one r x r eigensolve, with r the
    coupling's numerical rank (``linalg.EIG_DIM_LIMIT`` at most; n has no
    limit), in place of an n x n one.  MFIE/CFIE/BW spectra are matched
    against the EFIE spectrum; the report carries the worst matched
    relative mismatch, its verdict against ``DESK_SPECTRUM_THRESHOLD``,
    and every spectrum in the canonical row order (``SpectrumReport``).
    """
    eigenvalues = {kind: _preconditioned_spectrum(system)
                   for kind, system in formulations.systems(
                       formulations.FORMULATION_KINDS, scene, mesh, alpha, eta, eta_bw,
                       operators).items()}
    reference = eigenvalues["EFIE"]
    order = np.lexsort((reference.imag, reference.real))
    eigenvalues["EFIE"] = reference[order]
    worst = 0.0
    for kind in ("MFIE", "CFIE", "BW"):
        # matched to EFIE's computed order, which sets the order the greedy
        # matching visits equal magnitudes in, then put in the sorted order
        perm = linalg.match_eigenvalues(reference, eigenvalues[kind])
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise RuntimeError("eigenvalue matching is not a permutation")
        eigenvalues[kind] = eigenvalues[kind][perm[order]]
        rel = np.abs(eigenvalues[kind] - eigenvalues["EFIE"]) / np.abs(eigenvalues["EFIE"])
        worst = max(worst, float(rel.max()))
    return SpectrumReport(eigenvalues=eigenvalues, matched_max_rel_error=worst,
                          threshold=DESK_SPECTRUM_THRESHOLD,
                          passed={"matched spectra": worst <= DESK_SPECTRUM_THRESHOLD})


def convergence_histories(scene, mesh, alpha: float = formulations.ALPHA,
                          eta: complex | None = None, eta_bw: complex | None = None,
                          operators=None, restart: int = linalg.GMRES_RESTART,
                          tol: float = linalg.GMRES_TOL,
                          maxiter: int = linalg.GMRES_MAXITER) -> ConvergenceReport:
    """GMRES histories for the eight systems and the two verdicts they settle:
    the preconditioned counts differ by at most one, and preconditioning
    improves X when X's preconditioned run converged and its plain run,
    capped at that count, did not.  A capped history is the start of the full
    one (``linalg.gmres``) that ``multiscat solve --plain`` writes.
    Non-convergence is recorded, never raised; preconditioned residuals are
    in the preconditioned norm.
    """
    records, improves = [], {}
    for kind, system in formulations.systems(formulations.FORMULATION_KINDS, scene, mesh,
                                             alpha, eta, eta_bw, operators).items():
        # the block LUs are dropped when this run returns: one system's at a time
        _, pre = formulations.solve(system, formulations.single_scattering_preconditioner(system),
                                    restart=restart, tol=tol, maxiter=maxiter)
        _, plain = formulations.solve(system, None, restart=restart, tol=tol,
                                      maxiter=pre.iterations)
        records += [SolveRecord.of(kind, False, plain), SolveRecord.of(kind, True, pre)]
        improves[f"preconditioning improves {kind}"] = pre.converged and not plain.converged
        logger.info("%s: %d preconditioned iterations (converged=%s), plain converged=%s",
                    kind, pre.iterations, pre.converged, plain.converged)
    counts = [rec.iterations for rec in records[1::2]]
    return ConvergenceReport(tuple(records), {
        "iteration counts superimposed": max(counts) - min(counts) <= 1, **improves})
