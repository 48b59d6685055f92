"""Numerical checks that single-scattering preconditioning merges the systems.

Two exact statements drive this module.  First, the preconditioned direct
systems coincide: left-multiplying the EFIE, MFIE and CFIE matrices by the
inverses of their own diagonal (single-obstacle) blocks yields one and the
same operator, up to discretization error.  Second, the preconditioned BW
system is similar to that common operator through T = A_E^{-1} A_BW; since
P_BW = D_BW^{-1} A_BW with D_BW the block diagonal of A_BW, the conjugate is
T P_BW T^{-1} = A_E^{-1} A_BW D_BW^{-1} A_E, and T itself is never formed.
Both are checked here at configurable scale, together with the spectral and
GMRES-history consequences.

The checks read every system as a view of L, N and the mass (see
``formulations``) and work by obstacle row blocks: row block p of P_X is
LU_p^{-1} A_X[rows_p, :], formed from the operators and dropped once used,
as is LU_p; ``cli._peak_bytes`` counts what each check holds.  P_X = I + K_X,
where the coupling K_X between separated obstacles is numerically of low
rank r.  One pivoted QR per obstacle of EFIE's coupling rows gives two
bases, the fields the obstacle radiates and those arriving at it, and every
formulation's coupling is taken in one of them when an explicit residual
shows it fits (``_coupling_in_bases``).  From those factors P_X's
eigenvalues are 1 plus those of an r x r matrix and n - r ones, and the
similarity needs one r x r factorization in place of A_E's (Woodbury's
identity, ``check_bw_similarity``); the direct check and the GMRES
histories keep the dense arithmetic.  GMRES applies each system as
products with L, N and the mass bands.

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
# |R_11| (``_coupling_bases``).  On desk (seed 0, ppw 10 and 60) the
# spectra then differ from dense eigensolves by about 15 times the tolerance
# down to 1e-13, where they meet the dense solve's own rounding (2e-12);
# at 1e-13 the rank r is 78-84 of 149-887 unknowns, and 1e-14 adds columns
# with no consistent gain.
COUPLING_RANK_TOL = 1e-13
# A formulation's coupling rows C_X,p are taken in one of EFIE's bases when
# that basis reproduces them within BASIS_RESIDUAL_TOL ||C_X,p||_inf, by an
# explicit residual (``_coupling_in_bases``).  On desk (seeds 0, 1 and 7 at
# ppw 10, 15 and 30, seed 0 at ppw 60) W_p reproduces MFIE's and CFIE's rows
# to 1.9e-13 and Q_p BW's to 7.4e-14, while the other basis misses them by
# 9.5e-3 to 0.94.  Larger obstacles fit less well: on the first 11 paper
# obstacles (k = 20, ppw 15) W_p holds MFIE's and CFIE's rows to 1.75e-12 and
# Q_p BW's to 2.6e-14, and the other basis misses them by 0.21 or more.
# 1e-11 is about five times the largest fit.  On two ellipses 0.05 apart the
# best fits are 1.2e-9 to 2e-9; those couplings take their own QR.
BASIS_RESIDUAL_TOL = 1e-11
# rows of a product formed at once when only its norm is needed
_PRODUCT_ROWS = 32


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
    optimal matching to that (``linalg.match_eigenvalues``), so LAPACK's
    output order never shows; each of MFIE's, CFIE's and BW's optimal
    matching distance to EFIE's spectrum; and the worst matched relative
    error, the largest of the three, with its threshold and verdict."""

    eigenvalues: dict[str, np.ndarray]
    matched_rel_errors: dict[str, float]
    threshold: float
    passed: dict[str, bool]

    @property
    def matched_max_rel_error(self) -> float:
        return max(self.matched_rel_errors.values())


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
                          eta: complex | None = None, operators=None) -> TheoremReport:
    """Pairwise differences among the preconditioned EFIE/MFIE/CFIE matrices.

    Each difference is ||P_X - P_Y||_inf / ||P_Y||_inf with the denominator
    taken from the second formulation of the pair.  Both norms are the
    largest over the obstacles of their row blocks' norms.
    """
    systems = formulations.systems(DIRECT_KINDS, scene, mesh, alpha, eta, None, operators)
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
        thresholds=dict.fromkeys(differences, DESK_DIRECT_THRESHOLD),
        passed={key: value <= DESK_DIRECT_THRESHOLD for key, value in differences.items()},
    )


def check_bw_similarity(scene, mesh, eta_bw: complex | None = None,
                        operators=None) -> TheoremReport:
    """Conjugate the preconditioned BW matrix by T = A_E^{-1} A_BW and
    compare with the preconditioned EFIE matrix, from the coupling factors.

    Reports ||P_E - T P_BW T^{-1}||_inf / ||P_BW||_inf.  With D_X the block
    diagonal of A_X and C_X = A_X - D_X its coupling, P_X = I + D_X^{-1} C_X
    and T P_BW T^{-1} = A_E^{-1} A_BW D_BW^{-1} A_E = I + A_E^{-1} C_BW D_BW^{-1} A_E.
    EFIE's coupling is D_E^{-1} C_E = U_E W^H and BW's is C_BW =
    blockdiag(F_p) Z^H (``_Coupling``), so

        P_E - T P_BW T^{-1} = U_E W^H - G H,
        G = A_E^{-1} blockdiag(F_p),  H = Z^H D_BW^{-1} A_E.

    A_E = D_E (I + U_E W^H), so Woodbury's identity gives G = Y - U_E M,
    with Y = D_E^{-1} blockdiag(F_p), S_E = W^H U_E and
    M = (I + S_E)^{-1} W^H Y.  Row block p of the difference is then
    U_E,p (W_p^H + M[rows of p] H) - Y_p H[rows of p].  The r x r
    capacitance I + S_E is the only matrix factored beyond the blocks, and
    H, r x n, the only product with an n x n matrix, A_E.
    A_E is singular exactly when I + S_E is: det A_E = det D_E det(I + S_E).
    """
    efie, bw = formulations.systems(("EFIE", "BW"), scene, mesh, eta_bw=eta_bw,
                                    operators=operators).values()
    offsets = mesh.block_offsets
    # W_p, U_E,p, BW's F_p Z_p^H and Y_p: n r, and 3 b r of cli._peak_bytes
    bases, solved, couplings, transported = [], [], [], []
    for p in range(mesh.n_obstacles):
        basis, projected, columns = _coupling_bases(efie, p)
        coupling = _coupling_in_bases(bw, p, basis, columns)
        lu = efie.block_lu(p)
        bases.append(basis)
        solved.append(linalg.lu_solve(lu, projected))
        couplings.append(coupling)
        transported.append(linalg.lu_solve(lu, coupling.left))
    del lu
    rank = sum(basis.shape[1] for basis in bases)
    logger.info("EFIE coupling rank %d of %d unknowns", rank, mesh.n_nodes)
    # with W and W^H Y, the capacitance is cli._peak_bytes's n r + 2 r^2
    capacitance = _project((basis.conj().T for basis in bases), solved, offsets, rank)
    capacitance[np.diag_indices(rank)] += 1.0
    try:
        capacitance = linalg.lu_factor(capacitance, overwrite=True)
    except linalg.SingularMatrixError as exc:
        raise linalg.SingularMatrixError(
            f"the single-layer system matrix is singular, so the similarity "
            f"transport T is not defined; the wavenumber may be an irregular "
            f"frequency ({exc})"
        ) from exc
    mixed = linalg.lu_solve(capacitance, _project((basis.conj().T for basis in bases),
                                                  transported, offsets, rank), overwrite=True)  # M
    del capacitance
    # BW's block LUs, then H beside W and M: cli._peak_bytes's 2 n r + r^2 + sum b_p^2
    bw_lus = formulations.single_scattering_preconditioner(bw)
    p_bw_norm, arriving = 0.0, []  # arriving: H's row blocks, one per obstacle
    for p, coupling in enumerate(couplings):
        right_h = coupling.right_h(bw, p)
        # row block p of P_BW - I is LU_BW,p^{-1} F_p Z_p^H, zero in p's own columns
        p_bw_norm = max(p_bw_norm, 1.0 + _product_norm(
            linalg.lu_solve(bw_lus[p], coupling.left), right_h))
        # Z_p^H D_BW^{-1} = V^H, with V's rows of q LU_BW,q^{-H} Z_p[rows of q]
        adjoint = np.concatenate([
            linalg.lu_solve(block_lu, right_h[:, lo:hi].conj().T, adjoint=True)
            for block_lu, lo, hi in zip(bw_lus, offsets, offsets[1:])])
        arriving.append(adjoint.conj().T @ efie.rows(0, mesh.n_nodes))
        del right_h, adjoint  # not held while the next obstacle's are formed
    del bw_lus
    rows_of = np.cumsum([0] + [basis.shape[1] for basis in bases])
    columns_of = np.cumsum([0] + [block.shape[1] for block in transported])
    difference = 0.0
    for p, (basis, u, y) in enumerate(zip(bases, solved, transported)):
        outgoing = basis.conj().T  # W_p^H + M[rows of p] H
        for q, h in enumerate(arriving):
            outgoing += mixed[rows_of[p]:rows_of[p + 1], columns_of[q]:columns_of[q + 1]] @ h
        difference = max(difference, _product_norm(u, outgoing, y @ arriving[p]))
    difference /= p_bw_norm
    logger.info("BW similarity difference: %.3e", difference)
    return TheoremReport(
        differences={},
        similarity_difference=difference,
        thresholds={"EFIE/BW": DESK_SIMILARITY_THRESHOLD},
        passed={"EFIE/BW": difference <= DESK_SIMILARITY_THRESHOLD},
    )


def _coupling_rows(system, p: int) -> np.ndarray:
    """C_X,p: obstacle p's rows of A_X with its own columns zeroed, a new array."""
    lo, hi = system.mesh.block_range(p)
    rows = np.require(system.rows(lo, hi), requirements="W")
    rows[:, lo:hi] = 0.0
    return rows


def _coupling_bases(system, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, F, Q) with obstacle p's coupling rows C_p equal to F W^H, up to
    the truncation at ``COUPLING_RANK_TOL``, and Q an orthonormal basis of
    F's columns.

    C_p is obstacle p's rows of A_X outside its own columns.  The pivoted QR
    C_p^H Pi = Q' R gives W, the first r_p columns of Q' with zeros in p's
    own rows: an orthonormal basis of C_p's numerical row space.  Then
    F = C_p W = Pi R[:r_p]^H takes no second product with C_p.  For EFIE, W
    spans the fields obstacle p radiates, tested on the other obstacles, and
    Q the fields arriving at p, tested on p: every formulation's coupling
    rows are made of the same fields (``_coupling_in_bases``).
    """
    n = system.n
    lo, hi = system.mesh.block_range(p)
    # C_p^H in Fortran order, factored in place into the reflectors of Q'; with R, 2 b n
    coupling_h = np.empty((n - (hi - lo), hi - lo), dtype=complex, order="F")
    np.conjugate(system.rows(lo, hi, 0, lo).T, out=coupling_h[:lo])
    np.conjugate(system.rows(lo, hi, hi, n).T, out=coupling_h[lo:])
    (reflectors, tau), r, piv = scipy.linalg.qr(coupling_h, overwrite_a=True, mode="raw",
                                                pivoting=True, check_finite=False)
    diagonal = np.abs(np.diagonal(r))  # empty with one obstacle: rank 0
    rank = int(np.count_nonzero(diagonal > COUPLING_RANK_TOL * diagonal[:1]))
    # Q's first r_p columns take only the first r_p reflectors
    ungqr = scipy.linalg.lapack.get_lapack_funcs("ungqr", (reflectors,))
    q = ungqr(reflectors[:, :rank], tau[:rank])[0] if rank else reflectors[:, :0]
    basis = np.zeros((n, rank), dtype=complex)  # n r_p of cli._peak_bytes's n r
    basis[:lo] = q[:lo]
    basis[hi:] = q[lo:]
    projected = np.empty((hi - lo, rank), dtype=complex)
    projected[piv] = r[:rank].conj().T
    return basis, projected, np.linalg.qr(projected)[0]


@dataclasses.dataclass(frozen=True)
class _Coupling:
    """One system's coupling rows of obstacle p as C_X,p = F B^H.

    ``left`` is F, b_p x r_p.  In row form ``basis`` is B, EFIE's shared
    W_p.  In column form it is None and F has orthonormal columns, so
    B = C_X,p^H F, and ``right_h`` forms B^H anew from the system's rows: no
    n x r_p factor is held beyond the shared ones.
    """

    left: np.ndarray
    basis: np.ndarray | None = None

    def right_h(self, system, p: int) -> np.ndarray:
        """B^H, r_p x n with zeros in p's own columns, a new array."""
        if self.basis is not None:
            return self.basis.conj().T
        return self.left.conj().T @ _coupling_rows(system, p)


def _product_norm(left: np.ndarray, right_h: np.ndarray, minus=None,
                  stop_above: float = np.inf) -> float:
    """||left right_h - minus||_inf, ``minus`` zero if None, formed
    ``_PRODUCT_ROWS`` rows at a time; the largest row sum so far as soon as
    it exceeds ``stop_above``."""
    worst = 0.0
    for i in range(0, left.shape[0], _PRODUCT_ROWS):
        rows = left[i:i + _PRODUCT_ROWS] @ right_h
        if minus is not None:
            rows -= minus[i:i + _PRODUCT_ROWS]
        worst = max(worst, linalg.inf_norm(rows))
        if worst > stop_above:
            break
    return worst


def _coupling_in_bases(system, p: int, basis: np.ndarray, columns: np.ndarray) -> _Coupling:
    """The system's coupling rows C_X,p in one of EFIE's bases W_p and Q_p
    (``_coupling_bases``) when that reproduces them.

    That is row form in W_p when C_X,p W_p W_p^H is within
    ``BASIS_RESIDUAL_TOL`` ||C_X,p||_inf of C_X,p, else column form in Q_p
    when Q_p Q_p^H C_X,p is; else column form in the system's own Q from
    ``_coupling_bases``, so that a coupling neither basis holds is never
    projected away.
    """
    coupling = _coupling_rows(system, p)  # b n of cli._peak_bytes
    bound = BASIS_RESIDUAL_TOL * linalg.inf_norm(coupling)
    left = coupling @ basis
    if _product_norm(left, basis.conj().T, coupling, bound) <= bound:
        return _Coupling(left, basis)
    if _product_norm(columns, columns.conj().T @ coupling, coupling, bound) <= bound:
        return _Coupling(columns)
    logger.info("%s coupling of obstacle %d is in neither shared basis",
                system.formulation.kind, p)
    del coupling
    return _Coupling(_coupling_bases(system, p)[2])


def _project(rights_h, blocks, offsets, rank: int) -> np.ndarray:
    """B^H blockdiag(blocks) in Fortran order, with B^H the ``rights_h``
    stacked, ``rank`` rows in all, each taken once and in turn: row block p,
    column block q is rights_h[p]'s columns of obstacle q times blocks[q]."""
    ends = np.cumsum([0] + [block.shape[1] for block in blocks])
    out = np.empty((rank, ends[-1]), dtype=complex, order="F")
    row = 0
    for right_h in rights_h:
        for lo, hi, c0, c1, block in zip(offsets, offsets[1:], ends, ends[1:], blocks):
            out[row:row + right_h.shape[0], c0:c1] = right_h[:, lo:hi] @ block
        row += right_h.shape[0]
        del right_h  # not held while the next is formed
    return out


def _preconditioned_spectrum(system, couplings) -> np.ndarray:
    """The n eigenvalues of P_X = I + K_X, from its coupling factors.

    ``couplings`` holds each obstacle's C_X,p = F_p B_p^H (``_Coupling``).
    Then K_X = U B^H, with U block diagonal (U_p = LU_p^{-1} F_p) and B
    every B_p side by side.  By Sylvester's determinant identity K_X's
    nonzero eigenvalues are those of the r x r matrix S = B^H U, so the
    spectrum is 1 + eig(S) followed by n - r entries of exactly 1.
    """
    # factored at rank 0 too: that LU is how a one-obstacle spectrum refuses a singular block
    solved = [linalg.lu_solve(system.block_lu(p), coupling.left)
              for p, coupling in enumerate(couplings)]
    rank = sum(u.shape[1] for u in solved)
    linalg.check_eig_dim(rank)  # before S is formed, so S and its solve's copy hold 2 r^2
    reduced = _project((coupling.right_h(system, p) for p, coupling in enumerate(couplings)),
                       solved, system.mesh.block_offsets, rank)
    return np.concatenate([1.0 + linalg.eigenvalues(reduced),
                           np.ones(system.n - rank, dtype=complex)])


def check_spectra(scene, mesh, alpha: float = formulations.ALPHA,
                  eta: complex | None = None, eta_bw: complex | None = None,
                  operators=None) -> SpectrumReport:
    """Eigenvalues of the four preconditioned matrices, optimally matched.

    Each spectrum comes from the low-rank coupling of its system
    (``_preconditioned_spectrum``): one r x r eigensolve, with r the
    coupling's numerical rank (``linalg.EIG_DIM_LIMIT`` at most; n has no
    limit), in place of an n x n one.  EFIE's coupling rows are factored
    once per obstacle (``_coupling_bases``) and the other formulations'
    couplings taken in those bases where they fit (``_coupling_in_bases``);
    one formulation's factors are held at a time.  EFIE's spectrum is
    sorted by (real, imag) and MFIE/CFIE/BW's each matched against it in
    the pairing of least worst relative distance, the optimal matching
    distance of the two multisets (``linalg.match_eigenvalues``); the
    report carries the three distances, the verdict of the largest against
    ``DESK_SPECTRUM_THRESHOLD``, and every spectrum in the canonical row
    order (``SpectrumReport``).

    The spectra cannot see BW's double layer transposed (N in place of
    N^T): L and Mh are symmetric, so that BW matrix and its block
    preconditioner are the transposes of the right ones and have the same
    eigenvalues.  Only ``check_bw_similarity`` (``verify``) catches it.
    """
    systems = formulations.systems(formulations.FORMULATION_KINDS, scene, mesh, alpha, eta,
                                   eta_bw, operators)
    # every obstacle's W_p and Q_p, held throughout: n r of cli._peak_bytes, and F_p, U_p
    # and one formulation's left factors, b r each
    bases = [_coupling_bases(systems["EFIE"], p) for p in range(mesh.n_obstacles)]
    eigenvalues = {"EFIE": _preconditioned_spectrum(systems["EFIE"], [
        _Coupling(projected, basis) for basis, projected, _ in bases])}
    bases = [(basis, columns) for basis, _, columns in bases]  # F_p is EFIE's alone
    for kind in ("MFIE", "CFIE", "BW"):
        eigenvalues[kind] = _preconditioned_spectrum(systems[kind], [
            _coupling_in_bases(systems[kind], p, *shared) for p, shared in enumerate(bases)])
    efie = eigenvalues["EFIE"]
    eigenvalues["EFIE"] = reference = efie[np.lexsort((efie.imag, efie.real))]
    errors = {}
    for kind in ("MFIE", "CFIE", "BW"):
        perm = linalg.match_eigenvalues(reference, eigenvalues[kind])
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise RuntimeError("eigenvalue matching is not a permutation")
        eigenvalues[kind] = eigenvalues[kind][perm]
        errors[kind] = float(np.max(np.abs(eigenvalues[kind] - reference) / np.abs(reference)))
    worst = max(errors.values())
    return SpectrumReport(eigenvalues=eigenvalues, matched_rel_errors=errors,
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
