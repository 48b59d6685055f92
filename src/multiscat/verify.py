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
as is LU_p.  Besides such blocks the direct check holds no full-size matrix,
the similarity two (A_BW D_BW^{-1} A_E and the LU of A_E) and the spectra
one P_X; GMRES applies each system as products with L, N and the mass bands.

The desk configuration (three obstacles, one of each shape, around 400
unknowns) keeps every check in the seconds range; the paper-scale
configuration (thirty obstacles, k=20) reproduces the full experiment and is
meant for occasional runs, not CI.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from . import formulations, geometry, linalg

logger = logging.getLogger(__name__)

DIRECT_KINDS = ("EFIE", "MFIE", "CFIE")
DIRECT_PAIRS = (("EFIE", "MFIE"), ("MFIE", "CFIE"), ("EFIE", "CFIE"))

# Frozen desk-scale regression thresholds; calibrated once against the
# ppw-refinement behavior of the desk configuration, then kept fixed.
DESK_DIRECT_THRESHOLD = 5e-2
DESK_SIMILARITY_THRESHOLD = 1e-2
DESK_SPECTRUM_THRESHOLD = 3e-2


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
    matching to EFIE's, so LAPACK's output order never shows."""

    eigenvalues: dict[str, np.ndarray]
    matched_max_rel_error: float


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
    records: tuple[SolveRecord, ...]

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
        rows = {kind: formulations.preconditioned_rows(system, p)
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
    inner = np.empty((n, n), dtype=complex)
    for p in range(mesh.n_obstacles):
        lo, hi = mesh.block_range(p)
        lu = bw.block_lu(p)  # one LU for both of BW's solves
        p_bw_norm = max(p_bw_norm, linalg.inf_norm(linalg.lu_solve(lu, bw.rows(lo, hi))))
        inner[lo:hi] = linalg.lu_solve(lu, efie.rows(lo, hi))
    del lu  # not held while the product is formed
    # A_BW D_BW^{-1} A_E by row blocks, in Fortran order to be solved in place
    conjugated = np.empty((n, n), dtype=complex, order="F")
    for p in range(mesh.n_obstacles):
        lo, hi = mesh.block_range(p)
        conjugated[lo:hi] = bw.rows(lo, hi) @ inner
    del inner
    try:
        efie_lu = linalg.lu_factor(efie.rows(0, n))
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


def check_spectra(scene, mesh, alpha: float = formulations.ALPHA,
                  eta: complex | None = None, eta_bw: complex | None = None,
                  operators=None) -> SpectrumReport:
    """Eigenvalues of the four preconditioned matrices, greedily matched.

    MFIE/CFIE/BW spectra are matched against the EFIE spectrum; the report
    carries the worst matched relative mismatch and every spectrum in the
    canonical row order (``SpectrumReport``).  Meshes above
    ``linalg.EIG_DIM_LIMIT`` unknowns are refused before any assembly.
    """
    linalg.check_eig_size(mesh.n_nodes)
    matrix = np.empty((mesh.n_nodes, mesh.n_nodes), dtype=complex)
    eigenvalues = {}
    for kind, system in formulations.systems(formulations.FORMULATION_KINDS, scene, mesh,
                                             alpha, eta, eta_bw, operators).items():
        for p in range(mesh.n_obstacles):
            lo, hi = mesh.block_range(p)
            matrix[lo:hi] = formulations.preconditioned_rows(system, p)
        eigenvalues[kind] = linalg.eigenvalues(matrix)
    del matrix  # not held while the spectra are matched
    reference = eigenvalues["EFIE"]
    order = np.lexsort((reference.imag, reference.real))
    eigenvalues["EFIE"] = reference[order]
    worst = 0.0
    for kind in ("MFIE", "CFIE", "BW"):
        # matched to LAPACK's order, which sets the order the greedy
        # matching visits equal magnitudes in, then put in the sorted order
        perm = linalg.match_eigenvalues(reference, eigenvalues[kind])
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise RuntimeError("eigenvalue matching is not a permutation")
        eigenvalues[kind] = eigenvalues[kind][perm[order]]
        rel = np.abs(eigenvalues[kind] - eigenvalues["EFIE"]) / np.abs(eigenvalues["EFIE"])
        worst = max(worst, float(rel.max()))
    return SpectrumReport(eigenvalues=eigenvalues, matched_max_rel_error=worst)


def convergence_histories(scene, mesh, alpha: float = formulations.ALPHA,
                          eta: complex | None = None, eta_bw: complex | None = None,
                          operators=None, restart: int = linalg.GMRES_RESTART,
                          tol: float = linalg.GMRES_TOL,
                          maxiter: int = linalg.GMRES_MAXITER) -> ConvergenceReport:
    """GMRES histories for the eight systems: four plain, four preconditioned.

    Non-convergence is recorded in the corresponding SolveRecord, never
    raised; preconditioned histories are measured in the preconditioned
    residual norm.
    """
    records = []
    for kind, system in formulations.systems(formulations.FORMULATION_KINDS, scene, mesh,
                                             alpha, eta, eta_bw, operators).items():
        for preconditioned in (False, True):
            # the next system's plain run drops these LUs: one system's at a time
            pre = formulations.single_scattering_preconditioner(system) if preconditioned else None
            _, report = formulations.solve(system, pre, restart=restart, tol=tol,
                                           maxiter=maxiter)
            records.append(SolveRecord.of(kind, preconditioned, report))
            logger.info("%s %s: %d iterations, converged=%s", kind,
                        "preconditioned" if preconditioned else "plain", report.iterations,
                        report.converged)
    return ConvergenceReport(records=tuple(records))
