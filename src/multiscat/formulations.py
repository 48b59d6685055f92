"""The four discrete scattering systems and the single-scattering preconditioner.

Each formulation leads to a linear system A x = b on the nodal values of an
unknown boundary density, with all identity terms realized weakly through
the mass matrix Mh so that every system lives in the same Galerkin pairing:

    EFIE:  A = Lh                              b = -l_u
    MFIE:  A = Mh/2 + Nh                       b = -l_v
    CFIE:  A = (1-alpha)(Mh/2 + Nh) + alpha eta Lh
                                               b = -[(1-alpha) l_v + alpha eta l_u]
    BW:    A = -eta_bw Lh + Nh^T + Mh/2        b = -l_u

where l_u and l_v are the Galerkin load vectors (u, phi_i) and (v, phi_i) of
the incident wave u and its normal derivative v on the flat panels (see
``incident_loads``), Lh and Nh the single and adjoint double layer matrices,
and alpha, eta, eta_bw the combination parameters.  BW's double layer enters
as -Nh^T, which is its Galerkin matrix exactly (see ``bem``), so BW and CFIE
share one pair of assembled operators.  The direct formulations solve for a
physical density whose single-layer potential is the scattered field; BW
solves for an artificial density with a combined representation.

Obstacles own contiguous index blocks.  The single-scattering preconditioner
factorizes the diagonal block of each obstacle and applies the inverses
blockwise, which turns the diagonal of the preconditioned system into exact
identities and leaves only inter-obstacle coupling.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import bem, linalg

FORMULATION_KINDS = ("EFIE", "MFIE", "CFIE", "BW")
_LOAD_ORDER = 8
# CFIE's weight of the single layer, and the standard couplings per unit
# wavenumber: eta = -ik (CFIE), eta_bw = ik/2 (BW).
ALPHA = 0.2
ETA_PER_K = -1j
ETA_BW_PER_K = 0.5j


@dataclasses.dataclass(frozen=True)
class Formulation:
    """Formulation choice plus combination parameters.

    ``eta`` (CFIE) and ``eta_bw`` (BW) default to None, meaning the standard
    wavenumber-dependent choices -ik and ik/2 filled in at build time.
    """

    kind: str
    alpha: float = ALPHA
    eta: complex | None = None
    eta_bw: complex | None = None

    def resolved(self, k: float) -> "Formulation":
        """Validate and substitute the k-dependent defaults."""
        if self.kind not in FORMULATION_KINDS:
            raise ValueError(f"unknown formulation kind {self.kind!r}")
        alpha, eta, eta_bw = self.alpha, self.eta, self.eta_bw
        if self.kind == "CFIE":
            if not 0.0 < alpha < 1.0:
                raise ValueError("CFIE requires alpha strictly inside (0, 1)")
            eta = complex(eta) if eta is not None else ETA_PER_K * k
            if eta.imag == 0.0:
                raise ValueError("CFIE requires a coupling eta with nonzero imaginary part")
        if self.kind == "BW":
            eta_bw = complex(eta_bw) if eta_bw is not None else ETA_BW_PER_K * k
            if eta_bw.imag == 0.0:
                raise ValueError("BW requires eta_bw with nonzero imaginary part")
        return Formulation(kind=self.kind, alpha=alpha, eta=eta, eta_bw=eta_bw)


@dataclasses.dataclass(frozen=True)
class IncidentWave:
    """Plane wave exp(i k beta . x) with a unit direction beta."""

    k: float
    beta: tuple[float, float]

    def validate(self) -> "IncidentWave":
        if self.k <= 0.0:
            raise ValueError("IncidentWave requires k > 0")
        if abs(math.hypot(*self.beta) - 1.0) > 1e-12:
            raise ValueError("IncidentWave requires a unit direction")
        return self


@dataclasses.dataclass(frozen=True)
class BlockSystem:
    """Assembled system with its per-obstacle block structure."""

    matrix: np.ndarray
    rhs: np.ndarray
    block_offsets: tuple[int, ...]
    formulation: Formulation
    mesh: object
    k: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.block_offsets) - 1

    def block_range(self, p: int) -> tuple[int, int]:
        return self.block_offsets[p], self.block_offsets[p + 1]


@dataclasses.dataclass(frozen=True)
class BlockPreconditioner:
    """LU factors of the diagonal blocks, one per obstacle."""

    factors: tuple[linalg.LuFactors, ...]
    block_offsets: tuple[int, ...]


def incident_loads(wave: IncidentWave, mesh) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin load vectors of the incident plane wave and its normal derivative.

    Entry i of the pair is (integral of phi_i u ds, integral of phi_i du/dn ds)
    over the flat panels, with each panel's own normal in du/dn and a Gauss
    rule of order 8 per panel.
    """
    wave.validate()
    rule = bem.gauss_rule(_LOAD_ORDER)
    beta = np.asarray(wave.beta)
    trace = np.exp(1j * wave.k * (bem._quad_points(mesh, rule) @ beta))
    normal_trace = (1j * wave.k * (mesh.normals @ beta))[:, None] * trace
    start_weights, end_weights = bem._basis_weights(rule)
    loads = []
    for values in (trace, normal_trace):
        # panel i adds to its start node i and its end node next_node[i], a
        # permutation, so the fancy-index addition touches distinct entries
        load = mesh.lengths * (values @ start_weights)
        load[mesh.next_node] += mesh.lengths * (values @ end_weights)
        loads.append(load)
    return loads[0], loads[1]


def checked_operators(kinds, scene, mesh, operators=None) -> dict:
    """``operators`` checked against the mesh and k, with the mass and the
    operators the formulation ``kinds`` need assembled, in one call, if missing."""
    ops = dict(operators) if operators is not None else {}
    for op in ops.values():
        if op.matrix.shape != (mesh.n_nodes, mesh.n_nodes):
            raise ValueError("pre-assembled operator does not match the mesh")
        if op.kind != "mass" and op.k != scene.k:
            raise ValueError("pre-assembled operator was built for a different k")
    needed = {"single_layer": set(kinds) - {"MFIE"}, "adjoint_double_layer": set(kinds) - {"EFIE"}}
    missing = tuple(kind for kind, users in needed.items() if users and kind not in ops)
    if missing:
        ops.update(bem.assemble_operators(mesh, scene.k, kinds=missing))
    if "mass" not in ops:
        ops["mass"] = bem.assemble_mass(mesh)
    return ops


def system_rows(form: Formulation, operators, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of a resolved formulation's system matrix from L, N and the
    mass, by the same operations in the same order as ``build_system``'s.
    EFIE's rows are a view of L, read-only if L is; the others' are new arrays."""
    mats = {kind: op.matrix for kind, op in operators.items()}
    if form.kind == "EFIE":
        return mats["single_layer"][lo:hi]
    if form.kind == "BW":
        rows = -form.eta_bw * mats["single_layer"][lo:hi]
        rows += mats["adjoint_double_layer"][:, lo:hi].T
        rows += 0.5 * mats["mass"][lo:hi]
        return rows
    rows = 0.5 * mats["mass"][lo:hi] + mats["adjoint_double_layer"][lo:hi]
    if form.kind == "CFIE":
        rows *= 1.0 - form.alpha
        rows += (form.alpha * form.eta) * mats["single_layer"][lo:hi]
    return rows


def build_system(form: Formulation, scene, mesh, operators=None) -> BlockSystem:
    """Assemble the system matrix and the load-vector right-hand side.

    ``operators`` may carry pre-assembled AssembledOperator objects keyed by
    kind ("mass" included) to share one assembly between formulations; any
    missing ones are assembled here.  The matrix is filled an obstacle's
    rows at a time by ``system_rows``.
    """
    form = form.resolved(scene.k)
    ops = checked_operators((form.kind,), scene, mesh, operators)
    load, normal_load = incident_loads(IncidentWave(k=scene.k, beta=tuple(scene.beta)), mesh)
    if form.kind == "MFIE":
        rhs = -normal_load
    elif form.kind == "CFIE":
        rhs = -((1.0 - form.alpha) * normal_load + (form.alpha * form.eta) * load)
    else:
        rhs = -load

    matrix = np.empty((mesh.n_nodes, mesh.n_nodes), dtype=complex)
    for p in range(len(mesh.meshes)):
        lo, hi = mesh.block_range(p)
        matrix[lo:hi] = system_rows(form, ops, lo, hi)
    matrix.flags.writeable = False
    rhs.flags.writeable = False
    return BlockSystem(matrix=matrix, rhs=rhs, formulation=form, mesh=mesh, k=scene.k,
                       block_offsets=tuple(int(o) for o in mesh.block_offsets))


def factor_diagonal_block(block, p: int) -> linalg.LuFactors:
    """LU of obstacle p's diagonal block of a system matrix."""
    try:
        return linalg.lu_factor(block)
    except linalg.SingularMatrixError as exc:
        raise linalg.SingularMatrixError(
            f"diagonal block of obstacle {p} is singular; the wavenumber may "
            f"sit on an irregular frequency of that obstacle, or the mesh is "
            f"degenerate ({exc})"
        ) from exc


def single_scattering_preconditioner(system: BlockSystem) -> BlockPreconditioner:
    """LU-factorize each obstacle's diagonal block of the system matrix."""
    factors = []
    for p in range(system.n_blocks):
        lo, hi = system.block_range(p)
        factors.append(factor_diagonal_block(system.matrix[lo:hi, lo:hi], p))
    return BlockPreconditioner(factors=tuple(factors), block_offsets=system.block_offsets)


def preconditioned_rows(form: Formulation, operators, p: int, lo: int, hi: int):
    """Rows lo:hi of obstacle p of a resolved formulation's preconditioned
    matrix, LU_p^{-1} A[lo:hi, :], in C order like ``preconditioned_matrix``; and LU_p."""
    rows = system_rows(form, operators, lo, hi)
    factors = factor_diagonal_block(rows[:, lo:hi], p)
    solved = linalg.lu_solve(factors, rows)
    del rows
    return np.ascontiguousarray(solved), factors


def _block_solve(pre: BlockPreconditioner, vector: np.ndarray) -> np.ndarray:
    out = np.empty_like(vector, dtype=complex)
    for factor, lo, hi in zip(pre.factors, pre.block_offsets, pre.block_offsets[1:]):
        out[lo:hi] = linalg.lu_solve(factor, vector[lo:hi])
    return out


def preconditioned_matrix(system: BlockSystem, pre: BlockPreconditioner) -> np.ndarray:
    """The preconditioned operator as an explicit dense matrix.

    Row block p is the solve of the p-th diagonal LU factor against the
    corresponding rows of A, so diagonal blocks are identities up to LU
    roundoff and off-diagonal blocks carry the inter-obstacle coupling.
    """
    if pre.block_offsets != system.block_offsets:
        raise ValueError("preconditioner blocks do not match the system")
    return _block_solve(pre, system.matrix)


def solve(system: BlockSystem, pre: BlockPreconditioner | None = None,
          restart: int = linalg.GMRES_RESTART, tol: float = linalg.GMRES_TOL,
          maxiter: int = linalg.GMRES_MAXITER):
    """GMRES on the system, optionally left-preconditioned blockwise.

    Returns (density, GmresReport); non-convergence shows up in the report
    flag, not as an exception.
    """
    left = None
    if pre is not None:
        if pre.block_offsets != system.block_offsets:
            raise ValueError("preconditioner blocks do not match the system")
        left = lambda w: _block_solve(pre, w)
    return linalg.gmres(
        lambda v: system.matrix @ v,
        system.rhs,
        restart=restart,
        tol=tol,
        maxiter=maxiter,
        left_precond=left,
    )


def scattered_field(system: BlockSystem, density, points) -> bem.PotentialField:
    """Scattered field of a solved density at exterior points.

    Direct formulations represent the field by the single-layer potential of
    the density; BW combines single and double layers with its coupling.
    The near-boundary flags from the potential evaluation pass through.
    """
    density = np.asarray(density)
    if density.shape != (system.n,):
        raise ValueError(f"density has shape {density.shape}, expected ({system.n},)")
    single = bem.evaluate_potentials(system.mesh, density, system.k, points, layer="single")
    if system.formulation.kind != "BW":
        return single
    double = bem.evaluate_potentials(system.mesh, density, system.k, points, layer="double")
    values = -system.formulation.eta_bw * single.values - double.values
    return bem.PotentialField(
        values=values, near_boundary=single.near_boundary | double.near_boundary
    )
