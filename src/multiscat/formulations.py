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
the incident wave u = exp(i k beta . x) and its normal derivative v on the
flat panels (see ``incident_loads``), Lh and Nh the single and adjoint
double layer matrices, and alpha, eta, eta_bw the combination parameters.
BW's double layer enters as -Nh^T, which is its Galerkin matrix exactly
(see ``bem``), so BW and CFIE share one pair of assembled operators.  The
direct formulations solve for a physical density whose single-layer
potential is the scattered field; BW solves for an artificial density
with a combined representation.

A system is a view of Lh, Nh and Mh (the last kept as three bands per
node) and of the scene, the one holder of k and beta: each combination
above is written once, in ``_combination``, which forms row blocks of A for
the checks and the preconditioner and applies A to a vector for GMRES; A
itself is never stored.  Systems are built only once the scene and the
couplings have passed their one check each, so a bad k, beta or coupling
is refused before any assembly.
Obstacles own the mesh's contiguous index blocks.  The single-scattering
preconditioner factorizes the diagonal block of each obstacle and applies
the inverses blockwise, which turns the diagonal of the preconditioned
system into exact identities and leaves only inter-obstacle coupling; its
caller holds the factors, never the system.
"""

from __future__ import annotations

import cmath
import dataclasses

import numpy as np

from . import bem, geometry, linalg

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
        """This formulation with both k-dependent defaults filled in, once
        every coupling is checked, whatever the kind: each is finite,
        0 < alpha < 1, and eta and eta_bw have nonzero imaginary parts."""
        if self.kind not in FORMULATION_KINDS:
            raise ValueError(f"unknown formulation kind {self.kind!r}")
        eta = complex(self.eta) if self.eta is not None else ETA_PER_K * k
        eta_bw = complex(self.eta_bw) if self.eta_bw is not None else ETA_BW_PER_K * k
        for name, value in (("alpha", self.alpha), ("eta", eta), ("eta_bw", eta_bw)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("CFIE requires alpha strictly inside (0, 1)")
        if eta.imag == 0.0:
            raise ValueError("CFIE requires a coupling eta with nonzero imaginary part")
        if eta_bw.imag == 0.0:
            raise ValueError("BW requires eta_bw with nonzero imaginary part")
        return dataclasses.replace(self, eta=eta, eta_bw=eta_bw)


def incident_loads(scene, mesh) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin load vectors of the validated scene's incident plane wave
    u = exp(i k beta . x) and its normal derivative.

    Entry i of the pair is (integral of phi_i u ds, integral of phi_i du/dn ds)
    over the flat panels, with each panel's own normal in du/dn and a Gauss
    rule of order 8 per panel.
    """
    rule = bem.gauss_rule(_LOAD_ORDER)
    beta = np.asarray(scene.beta)
    trace = np.exp(1j * scene.k * (bem._quad_points(mesh, rule) @ beta))
    normal_trace = (1j * scene.k * (mesh.normals @ beta))[:, None] * trace
    start_weights, end_weights = bem._basis_weights(rule)
    loads = []
    for values in (trace, normal_trace):
        # panel i adds to its start node i and its end node next_node[i], a
        # permutation, so the fancy-index addition touches distinct entries
        load = mesh.lengths * (values @ start_weights)
        load[mesh.next_node] += mesh.lengths * (values @ end_weights)
        loads.append(load)
    return loads[0], loads[1]


def operator_kinds(kinds) -> tuple[str, ...]:
    """The operators the formulation ``kinds`` need: EFIE needs L, MFIE N, the others both."""
    needed = {"single_layer": set(kinds) - {"MFIE"}, "adjoint_double_layer": set(kinds) - {"EFIE"}}
    return tuple(kind for kind, users in needed.items() if users)


def checked_operators(kinds, scene, mesh, operators=None) -> dict:
    """``operators`` checked against the mesh and k, with the mass and the
    operators the formulation ``kinds`` need assembled, in one call, if missing."""
    ops = dict(operators) if operators is not None else {}
    for kind, op in ops.items():
        if op.n != mesh.n_nodes:
            raise ValueError("pre-assembled operator does not match the mesh")
        if kind != "mass" and op.k != scene.k:
            raise ValueError("pre-assembled operator was built for a different k")
    missing = tuple(kind for kind in operator_kinds(kinds) if kind not in ops)
    if missing:
        ops.update(bem.assemble_operators(mesh, scene.k, kinds=missing))
    if "mass" not in ops:
        ops["mass"] = bem.assemble_mass(mesh)
    return ops


def _combination(form: Formulation, single, adjoint, adjoint_t, add_mass):
    """A applied by the formulation's combination: ``single``, ``adjoint``
    and ``adjoint_t`` give L, N and N^T applied (read-only views or new
    arrays), ``add_mass(out, c)`` adds c Mh applied to ``out`` in place."""
    if form.kind == "EFIE":
        return single()
    if form.kind == "BW":
        out = -form.eta_bw * single()
        out += adjoint_t()
        add_mass(out, 0.5)
        return out
    out = np.array(adjoint(), dtype=complex)
    add_mass(out, 0.5)
    if form.kind == "CFIE":
        out *= 1.0 - form.alpha
        out += (form.alpha * form.eta) * single()
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class BlockSystem:
    """A resolved formulation's system A x = b as a view of the operators,
    on the mesh of a validated scene, whose k and beta give b.

    ``rows``, ``matvec``, ``block_lu(p)`` and ``rhs`` form blocks of A,
    products with it, the LU of obstacle p's diagonal block and b, anew on
    every use: a system keeps nothing beyond its fields.
    """

    formulation: Formulation
    mesh: geometry.SceneMesh
    scene: geometry.Scene
    operators: dict

    @property
    def n(self) -> int:
        return self.mesh.n_nodes

    @property
    def rhs(self) -> np.ndarray:
        """b, read-only (module docstring)."""
        form = self.formulation
        load, normal_load = incident_loads(self.scene, self.mesh)
        if form.kind == "MFIE":
            rhs = -normal_load
        elif form.kind == "CFIE":
            rhs = -((1.0 - form.alpha) * normal_load + (form.alpha * form.eta) * load)
        else:
            rhs = -load
        rhs.flags.writeable = False
        return rhs

    def rows(self, lo: int, hi: int, c0: int = 0, c1: int | None = None) -> np.ndarray:
        """A[lo:hi, c0:c1]: for EFIE a read-only view of L, else a new array."""
        ops = self.operators
        return _combination(
            self.formulation,
            lambda: ops["single_layer"].matrix[lo:hi, c0:c1],
            lambda: ops["adjoint_double_layer"].matrix[lo:hi, c0:c1],
            lambda: ops["adjoint_double_layer"].matrix[c0:c1, lo:hi].T,
            lambda out, scale: ops["mass"].add_to(out, lo, c0, scale))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v, from products of v with L, N and the mass bands."""
        ops = self.operators
        return _combination(
            self.formulation,
            lambda: ops["single_layer"].matrix @ v,
            lambda: ops["adjoint_double_layer"].matrix @ v,
            lambda: v @ ops["adjoint_double_layer"].matrix,
            lambda out, scale: np.add(out, scale * (ops["mass"] @ v), out=out))

    def block_lu(self, p: int) -> linalg.LuFactors:
        """LU of obstacle p's diagonal block, factored anew on each call."""
        lo, hi = self.mesh.block_range(p)
        try:
            return linalg.lu_factor(self.rows(lo, hi, lo, hi))
        except linalg.SingularMatrixError as exc:
            raise linalg.SingularMatrixError(
                f"diagonal block of obstacle {p} is singular; the wavenumber may sit on an "
                f"irregular frequency of that obstacle, or the mesh is degenerate ({exc})"
            ) from exc


def systems(kinds, scene, mesh, alpha: float = ALPHA, eta: complex | None = None,
            eta_bw: complex | None = None, operators=None) -> dict[str, BlockSystem]:
    """{kind: system} for each formulation of ``kinds``, in their order, for
    the scene's incident wave.

    ``operators`` may carry pre-assembled L and N and the mass, keyed by
    kind ("mass" included), to share one assembly between calls; the
    systems share one set of operators, the missing ones assembled here
    once the scene and every formulation are validated.
    """
    scene.validate()
    forms = [Formulation(kind, alpha, eta, eta_bw).resolved(scene.k) for kind in kinds]
    ops = checked_operators(kinds, scene, mesh, operators)
    return {form.kind: BlockSystem(form, mesh, scene, ops) for form in forms}


def build_system(form: Formulation, scene, mesh, operators=None) -> BlockSystem:
    """The system of one formulation: ``systems`` for ``form`` alone."""
    return systems((form.kind,), scene, mesh, form.alpha, form.eta, form.eta_bw,
                   operators)[form.kind]


def single_scattering_preconditioner(system: BlockSystem) -> tuple[linalg.LuFactors, ...]:
    """The LU factors of each obstacle's diagonal block, factored here: the
    block LUs of ``cli._peak_bytes``, sum b_p^2 <= n^2 entries."""
    return tuple(system.block_lu(p) for p in range(system.mesh.n_obstacles))


def preconditioned_rows(system: BlockSystem, p: int) -> np.ndarray:
    """Row block p of the preconditioned matrix, LU_p^{-1} A[lo:hi, :] for
    obstacle p's rows lo:hi, in C order, from one factorization of the block."""
    solved = linalg.lu_solve(system.block_lu(p), system.rows(*system.mesh.block_range(p)))
    return np.ascontiguousarray(solved)


def solve(system: BlockSystem, pre=None,
          restart: int = linalg.GMRES_RESTART, tol: float = linalg.GMRES_TOL,
          maxiter: int = linalg.GMRES_MAXITER):
    """GMRES on the system, left-preconditioned blockwise by the block LUs
    ``pre`` (see ``single_scattering_preconditioner``) unless it is None.

    Returns (density, GmresReport); non-convergence shows up in the report
    flag, not as an exception.
    """
    offsets = system.mesh.block_offsets
    left = None if pre is None else lambda w: np.concatenate(
        [linalg.lu_solve(lu, w[lo:hi]) for lu, lo, hi in zip(pre, offsets, offsets[1:])])
    return linalg.gmres(system.matvec, system.rhs, restart=restart, tol=tol, maxiter=maxiter,
                        left_precond=left)


def scattered_fields(systems, densities, points) -> list[bem.PotentialField]:
    """Scattered fields of solved densities at exterior points, one per
    system, from one potential pass: the single layer of every density and
    the double layer of BW's, from the same Bessel values.

    Direct formulations represent the field by the single-layer potential of
    the density; BW combines single and double layers with its coupling.
    Every system must hold the same mesh and k.  Each field equals, bit for
    bit, that of its system alone.  The near-boundary flags from the
    potential evaluation pass through.
    """
    systems, densities = list(systems), [np.asarray(d) for d in densities]
    if len(densities) != len(systems):
        raise ValueError(f"{len(densities)} densities for {len(systems)} systems")
    if not systems:
        return []
    mesh, k = systems[0].mesh, systems[0].scene.k
    for system, density in zip(systems, densities):
        if system.mesh is not mesh or system.scene.k != k:
            raise ValueError("the systems must share one mesh and one k")
        if density.shape != (system.n,):
            raise ValueError(f"density has shape {density.shape}, expected ({system.n},)")
    bw = [i for i, system in enumerate(systems) if system.formulation.kind == "BW"]
    # column i is density i's single layer, column len(systems) + j BW density j's double layer
    potentials = bem.evaluate_potentials(
        mesh, np.stack(densities + [densities[i] for i in bw], axis=1), k, points,
        layer=("single",) * len(systems) + ("double",) * len(bw))
    fields = []
    for i, system in enumerate(systems):
        values = potentials.values[:, i]
        if i in bw:
            values = (-system.formulation.eta_bw * values
                      - potentials.values[:, len(systems) + bw.index(i)])
        fields.append(bem.PotentialField(values=np.ascontiguousarray(values),
                                         near_boundary=potentials.near_boundary))
    return fields


def scattered_field(system: BlockSystem, density, points) -> bem.PotentialField:
    """``scattered_fields`` of one system."""
    return scattered_fields([system], [density], points)[0]
