"""The four boundary integral systems, block preconditioning, and the disk gate."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from multiscat import analytic, bem, formulations, geometry, linalg

DISK_K = 5.0
BETA = (0.0, 1.0)


def disk_scene() -> geometry.Scene:
    return geometry.Scene(
        k=DISK_K,
        beta=BETA,
        obstacles=(geometry.Shape(kind="ellipse", a=1.0, b=1.0),),
        box=(-5.0, -5.0, 5.0, 5.0),
    )


def two_disk_scene(distance: float) -> geometry.Scene:
    return geometry.Scene(
        k=DISK_K,
        beta=BETA,
        obstacles=(
            geometry.Shape(kind="ellipse", center=(0.0, 0.0)),
            geometry.Shape(kind="ellipse", center=(distance, 0.0)),
        ),
        box=(-3.0, -3.0, distance + 3.0, 3.0),
        min_center_distance=3.0,
    )


@pytest.fixture(scope="module")
def disk():
    """Unit disk at the working resolution, with every operator pre-assembled."""
    scene = disk_scene()
    mesh = geometry.mesh_scene(scene, ppw=15)
    ops = bem.assemble_operators(mesh, scene.k)
    ops["mass"] = bem.assemble_mass(mesh)
    return scene, mesh, ops


@pytest.fixture(scope="module")
def coarse_pair():
    """Two unit disks, coarse mesh; enough for structural checks."""
    scene = two_disk_scene(5.0)
    mesh = geometry.mesh_scene(scene, ppw=6)
    ops = bem.assemble_operators(mesh, scene.k)
    ops["mass"] = bem.assemble_mass(mesh)
    return scene, mesh, ops


@pytest.fixture(scope="module")
def mie_reference():
    theta = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    points = 3.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    cfg = analytic.MieConfig(k=DISK_K, radius=1.0, beta=BETA)
    return points, analytic.mie_scattered(cfg, points)


def preconditioned_matrix(system) -> np.ndarray:
    """The whole preconditioned matrix, from the system's row blocks."""
    return np.concatenate([formulations.preconditioned_rows(system, p)
                           for p in range(system.mesh.n_obstacles)])


def build_all(scene, mesh, ops):
    return {
        kind: formulations.build_system(
            formulations.Formulation(kind=kind), scene, mesh, operators=ops
        )
        for kind in formulations.FORMULATION_KINDS
    }


class TestIncidentLoads:
    def test_rejects_non_unit_direction_and_bad_wavenumber(self, disk, monkeypatch):
        # k and beta live in the scene alone, and its one rule refuses them
        # before any assembly
        scene, mesh, _ = disk

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled before the scene was validated")

        for name in ("assemble_operators", "assemble_mass"):
            monkeypatch.setattr(bem, name, no_assembly)
        for change, message in (({"beta": (1.0, 1.0)}, "unit vector"),
                                ({"beta": (0.6, 0.8 + 1e-8)}, "unit vector"),
                                ({"k": 0.0}, "wavenumber must be positive"),
                                ({"k": -5.0}, "wavenumber must be positive")):
            bad = dataclasses.replace(scene, **change)
            with pytest.raises(ValueError, match=message):
                formulations.build_system(formulations.Formulation(kind="CFIE"), bad, mesh)
            with pytest.raises(ValueError, match=message):
                formulations.systems(formulations.FORMULATION_KINDS, bad, mesh)


class TestParameterValidation:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.3])
    def test_cfie_alpha_must_lie_inside_open_interval(self, alpha):
        form = formulations.Formulation(kind="CFIE", alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            form.resolved(DISK_K)

    def test_cfie_coupling_needs_imaginary_part(self):
        form = formulations.Formulation(kind="CFIE", eta=2.0)
        with pytest.raises(ValueError, match="eta"):
            form.resolved(DISK_K)

    def test_bw_coupling_needs_imaginary_part(self):
        form = formulations.Formulation(kind="BW", eta_bw=-3.0)
        with pytest.raises(ValueError, match="eta_bw"):
            form.resolved(DISK_K)

    @pytest.mark.parametrize("kind", formulations.FORMULATION_KINDS)
    @pytest.mark.parametrize("coupling", [{"alpha": float("nan")}, {"alpha": float("inf")},
                                          {"eta": complex(float("nan"), 1.0)},
                                          {"eta_bw": complex(1.0, float("inf"))}],
                             ids=["alpha-nan", "alpha-inf", "eta-nan", "eta_bw-inf"])
    def test_non_finite_coupling_rejected_whatever_the_kind(self, kind, coupling):
        # every coupling is checked, not only the ones the kind uses
        with pytest.raises(ValueError, match="must be finite"):
            formulations.Formulation(kind=kind, **coupling).resolved(DISK_K)

    def test_bad_coupling_refused_before_any_assembly(self, disk, monkeypatch):
        scene, mesh, _ = disk

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled before the couplings were validated")

        for name in ("assemble_operators", "assemble_mass"):
            monkeypatch.setattr(bem, name, no_assembly)
        with pytest.raises(ValueError, match="must be finite"):
            formulations.systems(("BW",), scene, mesh, eta_bw=complex(1.0, float("nan")))
        with pytest.raises(ValueError, match="alpha strictly inside"):
            formulations.systems(("EFIE",), scene, mesh, alpha=1.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            formulations.Formulation(kind="HYPER").resolved(DISK_K)

    def test_defaults_resolve_to_wavenumber_scaled_couplings(self):
        cfie = formulations.Formulation(kind="CFIE").resolved(DISK_K)
        bw = formulations.Formulation(kind="BW").resolved(DISK_K)
        assert cfie.alpha == 0.2
        assert cfie.eta == -1j * DISK_K
        assert bw.eta_bw == 0.5j * DISK_K


class TestSystemAssembly:
    def test_efie_matrix_is_the_single_layer_matrix(self, disk):
        scene, mesh, ops = disk
        sys_ = formulations.build_system(
            formulations.Formulation(kind="EFIE"), scene, mesh, operators=ops
        )
        assert np.array_equal(sys_.rows(0, sys_.n), ops["single_layer"].matrix)

    def test_cfie_is_the_exact_linear_combination(self, disk):
        scene, mesh, ops = disk
        built = build_all(scene, mesh, ops)
        alpha, eta = 0.2, -1j * DISK_K
        n = mesh.n_nodes
        combined = (1.0 - alpha) * built["MFIE"].rows(0, n) + (alpha * eta) * built[
            "EFIE"
        ].rows(0, n)
        assert np.array_equal(built["CFIE"].rows(0, n), combined)

    def test_right_hand_sides_are_mass_projected_traces(self, disk):
        # Every right-hand side is the Galerkin load vector (g, phi_i) of the
        # exact incident data g on the flat panels, not a mass matrix applied
        # to a nodal interpolant.
        scene, mesh, ops = disk
        built = build_all(scene, mesh, ops)
        load, normal_load = formulations.incident_loads(scene, mesh)
        alpha, eta = 0.2, -1j * DISK_K
        assert np.array_equal(built["EFIE"].rhs, -load)
        assert np.array_equal(built["MFIE"].rhs, -normal_load)
        assert np.array_equal(built["BW"].rhs, -load)
        assert np.array_equal(
            built["CFIE"].rhs,
            -((1.0 - alpha) * normal_load + (alpha * eta) * load),
        )

        # Independent projection: order-32 Gauss per panel, panel normals.
        x, w = np.polynomial.legendre.leggauss(32)
        t, w = 0.5 * (x + 1.0), 0.5 * w
        beta = np.array(scene.beta)
        expected = np.zeros((2, mesh.n_nodes), dtype=complex)
        # panel i runs from node i to the next node of its obstacle's loop
        for p in range(mesh.n_obstacles):
            lo, hi = mesh.block_range(p)
            for i0 in range(lo, hi):
                i1 = lo + (i0 + 1 - lo) % (hi - lo)
                a, b = mesh.nodes[i0], mesh.nodes[i1]
                normal, length = mesh.normals[i0], mesh.lengths[i0]
                u = np.exp(1j * scene.k * ((a + t[:, None] * (b - a)) @ beta))
                dn = 1j * scene.k * (normal @ beta) * u
                for node, hat in ((i0, 1.0 - t), (i1, t)):
                    expected[0, node] += length * np.sum(w * hat * u)
                    expected[1, node] += length * np.sum(w * hat * dn)
        for got, ref in zip((load, normal_load), expected):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_bw_matrix_combines_the_three_operators(self, disk):
        scene, mesh, ops = disk
        sys_ = formulations.build_system(
            formulations.Formulation(kind="BW"), scene, mesh, operators=ops
        )
        eta_bw = 0.5j * DISK_K
        expected = (
            -eta_bw * ops["single_layer"].matrix
            + ops["adjoint_double_layer"].matrix.T
            + 0.5 * ops["mass"].toarray()
        )
        assert np.array_equal(sys_.rows(0, sys_.n), expected)

    def test_block_offsets_follow_the_mesh(self, coarse_pair):
        # every block a system gives is that block of its whole matrix
        scene, mesh, ops = coarse_pair
        for sys_ in build_all(scene, mesh, ops).values():
            assert sys_.mesh is mesh
            assert sys_.n == mesh.n_nodes
            whole = sys_.rows(0, sys_.n)
            for lo, hi in (mesh.block_range(0), mesh.block_range(1), (3, 17)):
                assert np.array_equal(sys_.rows(lo, hi), whole[lo:hi])
                for c0, c1 in (mesh.block_range(0), mesh.block_range(1), (5, 30)):
                    assert np.array_equal(sys_.rows(lo, hi, c0, c1), whole[lo:hi, c0:c1])

    def test_mismatched_preassembled_operators_rejected(self, disk):
        scene, mesh, ops = disk
        other_mesh = geometry.mesh_scene(disk_scene(), ppw=6)
        wrong_shape = bem.assemble_operators(other_mesh, scene.k, kinds=("single_layer",))
        with pytest.raises(ValueError, match="mesh"):
            formulations.build_system(
                formulations.Formulation(kind="EFIE"), scene, mesh,
                operators=wrong_shape,
            )
        wrong_k = bem.assemble_operators(mesh, 4.0, kinds=("single_layer",))
        with pytest.raises(ValueError, match="different k"):
            formulations.build_system(
                formulations.Formulation(kind="EFIE"), scene, mesh, operators=wrong_k
            )

    def test_matrix_and_rhs_are_read_only(self, disk):
        # EFIE's rows are a read-only view of L; the others' are new arrays,
        # so writing to them leaves the system as it was
        scene, mesh, ops = disk
        efie, mfie = (formulations.build_system(formulations.Formulation(kind=kind), scene,
                                                mesh, operators=ops) for kind in ("EFIE", "MFIE"))
        with pytest.raises(ValueError):
            efie.rows(0, 2)[0, 0] = 0.0
        rows = mfie.rows(0, 2)
        rows[0, 0] = 0.0
        assert mfie.rows(0, 2)[0, 0] != 0.0
        with pytest.raises(ValueError):
            mfie.rhs[0] = 0.0


class TestPreconditioner:
    def test_single_obstacle_preconditioner_inverts_the_whole_system(self, disk):
        scene, mesh, ops = disk
        sys_ = formulations.build_system(
            formulations.Formulation(kind="EFIE"), scene, mesh, operators=ops
        )
        pre = formulations.single_scattering_preconditioner(sys_)
        assert len(pre) == 1
        explicit = preconditioned_matrix(sys_)
        assert linalg.inf_norm(explicit - np.eye(sys_.n)) <= 1e-10

    @pytest.mark.parametrize("kind", formulations.FORMULATION_KINDS)
    def test_diagonal_blocks_become_identities(self, coarse_pair, kind):
        scene, mesh, ops = coarse_pair
        sys_ = formulations.build_system(
            formulations.Formulation(kind=kind), scene, mesh, operators=ops
        )
        explicit = preconditioned_matrix(sys_)
        for p in range(mesh.n_obstacles):
            lo, hi = mesh.block_range(p)
            block = explicit[lo:hi, lo:hi]
            assert linalg.inf_norm(block - np.eye(hi - lo)) <= 1e-10

    def test_block_sizes_match_per_obstacle_node_counts(self, coarse_pair):
        scene, mesh, ops = coarse_pair
        sys_ = formulations.build_system(
            formulations.Formulation(kind="BW"), scene, mesh, operators=ops
        )
        pre = formulations.single_scattering_preconditioner(sys_)
        assert len(pre) == mesh.n_obstacles
        for p, factor in enumerate(pre):
            lo, hi = mesh.block_range(p)
            assert factor.n == hi - lo
            again = sys_.block_lu(p)
            assert np.array_equal(factor.lu, again.lu) and np.array_equal(factor.piv, again.piv)

    def test_singular_diagonal_block_error_names_the_obstacle(self, coarse_pair):
        scene, mesh, ops = coarse_pair
        zero = bem.AssembledOperator(
            matrix=np.zeros((mesh.n_nodes, mesh.n_nodes), dtype=complex), k=scene.k)
        sys_ = formulations.build_system(
            formulations.Formulation(kind="EFIE"), scene, mesh, operators={"single_layer": zero}
        )
        with pytest.raises(linalg.SingularMatrixError, match="obstacle 0"):
            formulations.single_scattering_preconditioner(sys_)

    def test_coupling_weakens_with_separation(self):
        norms = {}
        for distance in (5.0, 50.0):
            scene = two_disk_scene(distance)
            mesh = geometry.mesh_scene(scene, ppw=6)
            sys_ = formulations.build_system(
                formulations.Formulation(kind="EFIE"), scene, mesh
            )
            explicit = preconditioned_matrix(sys_)
            lo0, hi0 = mesh.block_range(0)
            lo1, hi1 = mesh.block_range(1)
            norms[distance] = linalg.inf_norm(explicit[lo0:hi0, lo1:hi1])
        assert norms[50.0] < norms[5.0]


class TestSolve:
    @pytest.mark.parametrize("kind", formulations.FORMULATION_KINDS)
    def test_preconditioned_single_obstacle_needs_few_iterations(self, disk, kind):
        scene, mesh, ops = disk
        sys_ = formulations.build_system(
            formulations.Formulation(kind=kind), scene, mesh, operators=ops
        )
        pre = formulations.single_scattering_preconditioner(sys_)
        _, report = formulations.solve(sys_, pre)
        assert report.converged
        assert report.iterations <= 3

    def test_gmres_solution_matches_direct_solve(self, disk):
        scene, mesh, ops = disk
        sys_ = formulations.build_system(
            formulations.Formulation(kind="EFIE"), scene, mesh, operators=ops
        )
        density, report = formulations.solve(sys_, None, tol=1e-10, maxiter=2000)
        assert report.converged
        direct = linalg.lu_solve(linalg.lu_factor(sys_.rows(0, sys_.n)), sys_.rhs)
        assert_allclose(density, direct, rtol=1e-6)

    def test_unpreconditioned_takes_more_iterations_than_preconditioned(self, coarse_pair):
        scene, mesh, ops = coarse_pair
        sys_ = formulations.build_system(
            formulations.Formulation(kind="BW"), scene, mesh, operators=ops
        )
        pre = formulations.single_scattering_preconditioner(sys_)
        _, plain = formulations.solve(sys_)
        _, cond = formulations.solve(sys_, pre)
        assert plain.converged and cond.converged
        assert cond.iterations <= plain.iterations


@pytest.fixture(scope="module")
def solved(disk, mie_reference):
    scene, mesh, ops = disk
    points, reference = mie_reference
    built = build_all(scene, mesh, ops)
    errors = {}
    fields = {}
    densities = {}
    for kind, sys_ in built.items():
        pre = formulations.single_scattering_preconditioner(sys_)
        density, report = formulations.solve(sys_, pre, tol=1e-10)
        assert report.converged
        field = formulations.scattered_field(sys_, density, points)
        assert not field.near_boundary.any()
        errors[kind] = np.linalg.norm(field.values - reference) / np.linalg.norm(
            reference
        )
        fields[kind] = field.values
        densities[kind] = density
    return built, densities, fields, errors


class TestDiskGate:
    """Scattering by the unit disk against the separation-of-variables reference.

    With the right-hand sides built as Galerkin load vectors, all four
    formulations measure about 3.3e-3 at k = 5 and 15 points per wavelength,
    and the error falls at second order under refinement.  The load-bearing
    check for the adjoint-equation formulation is the sign of its identity
    term: flipping it breaks the field entirely rather than by a constant
    factor.
    """

    def test_efie_matches_the_disk_series(self, solved):
        *_, errors = solved
        assert errors["EFIE"] <= 1e-2

    def test_cfie_and_bw_match_the_disk_series(self, solved):
        *_, errors = solved
        assert errors["CFIE"] <= 1e-2
        assert errors["BW"] <= 1e-2

    def test_mfie_accuracy_and_identity_sign(self, disk, mie_reference, solved):
        *_, errors = solved
        assert errors["MFIE"] <= 1.5e-2

        scene, mesh, ops = disk
        points, reference = mie_reference
        mass = ops["mass"].toarray()
        _, normal_load = formulations.incident_loads(scene, mesh)
        flipped = -0.5 * mass + ops["adjoint_double_layer"].matrix
        density = linalg.lu_solve(linalg.lu_factor(flipped), -normal_load)
        field = bem.evaluate_potentials(mesh, density, scene.k, points, layer="single")
        wrong = np.linalg.norm(field.values - reference) / np.linalg.norm(reference)
        assert wrong > 0.5
        assert errors["MFIE"] < wrong / 20.0

    def test_direct_formulations_share_one_density(self, solved):
        _, densities, _, _ = solved
        scale = np.linalg.norm(densities["CFIE"])
        assert np.linalg.norm(densities["EFIE"] - densities["CFIE"]) / scale <= 5e-2
        assert np.linalg.norm(densities["MFIE"] - densities["CFIE"]) / scale <= 5e-2

    def test_bw_field_agrees_with_efie_field(self, solved):
        _, _, fields, _ = solved
        scale = np.linalg.norm(fields["EFIE"])
        assert np.linalg.norm(fields["BW"] - fields["EFIE"]) / scale <= 5e-2

    def test_total_field_shrinks_toward_the_boundary(self, disk, solved):
        scene, mesh, _ = disk
        built, densities, _, _ = solved
        sys_ = built["EFIE"]
        levels = []
        for radius in (2.0, 1.5, 1.2):
            theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
            pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            scattered = formulations.scattered_field(sys_, densities["EFIE"], pts)
            incident = np.exp(1j * scene.k * (pts @ np.array(scene.beta)))
            levels.append(
                np.linalg.norm(scattered.values + incident)
                / np.linalg.norm(incident)
            )
        assert levels[0] > levels[1] > levels[2]


class TestScatteredField:
    def test_zero_density_gives_zero_field(self, disk):
        scene, mesh, ops = disk
        sys_ = formulations.build_system(
            formulations.Formulation(kind="BW"), scene, mesh, operators=ops
        )
        pts = np.array([[3.0, 0.0], [0.0, -4.0]])
        field = formulations.scattered_field(sys_, np.zeros(sys_.n), pts)
        assert np.all(field.values == 0.0)

    def test_bw_field_is_the_combined_representation(self, disk):
        scene, mesh, ops = disk
        sys_ = formulations.build_system(
            formulations.Formulation(kind="BW"), scene, mesh, operators=ops
        )
        rng = np.random.default_rng(11)
        density = rng.standard_normal(sys_.n) + 1j * rng.standard_normal(sys_.n)
        pts = np.array([[2.5, 1.0], [-3.0, 0.5], [0.0, 4.0]])
        field = formulations.scattered_field(sys_, density, pts)
        single = bem.evaluate_potentials(mesh, density, scene.k, pts, layer="single")
        double = bem.evaluate_potentials(mesh, density, scene.k, pts, layer="double")
        eta_bw = 0.5j * DISK_K
        assert_allclose(
            field.values, -eta_bw * single.values - double.values, rtol=1e-13
        )

    def test_near_boundary_flag_passes_through(self, disk):
        scene, mesh, ops = disk
        sys_ = formulations.build_system(
            formulations.Formulation(kind="EFIE"), scene, mesh, operators=ops
        )
        pts = np.array([[1.0 + 1e-4, 0.0], [3.0, 0.0]])
        field = formulations.scattered_field(sys_, np.ones(sys_.n), pts)
        assert field.near_boundary[0]
        assert not field.near_boundary[1]

    def test_wrong_density_shape_rejected(self, disk):
        scene, mesh, ops = disk
        sys_ = formulations.build_system(
            formulations.Formulation(kind="EFIE"), scene, mesh, operators=ops
        )
        with pytest.raises(ValueError, match="density"):
            formulations.scattered_field(sys_, np.zeros(sys_.n - 1), np.array([[3.0, 0.0]]))


class TestScatteredFields:
    @pytest.mark.parametrize("case", ["disk", "desk"])
    def test_equal_one_call_per_system_and_the_representation(self, case, disk, desk, desk15):
        """All four fields from one call equal, bit for bit, the field of
        each system alone and its representation: the single-layer potential
        of the density, and for BW -eta_bw S rho - D rho."""
        if case == "disk":
            (scene, mesh, ops), box = disk, (-4.0, 4.0)
        else:
            (scene, (mesh, ops)), box = (desk, desk15), (0.0, 12.0)
        axis = np.linspace(*box, 17)
        points = np.stack([c.ravel() for c in np.meshgrid(axis, axis)], axis=1)
        systems = formulations.systems(formulations.FORMULATION_KINDS, scene, mesh, operators=ops)
        rng = np.random.default_rng(4)
        densities = [rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
                     for _ in systems]
        fields = formulations.scattered_fields(systems.values(), densities, points)
        assert len(fields) == 4
        for system, density, field in zip(systems.values(), densities, fields):
            alone = formulations.scattered_field(system, density, points)
            assert np.array_equal(field.values, alone.values)
            assert np.array_equal(field.near_boundary, alone.near_boundary)
            single = bem.evaluate_potentials(mesh, density, scene.k, points)
            expected = single.values
            if system.formulation.kind == "BW":
                double = bem.evaluate_potentials(mesh, density, scene.k, points, layer="double")
                expected = -system.formulation.eta_bw * single.values - double.values
            assert np.array_equal(field.values, expected)

    def test_systems_on_other_meshes_or_wavenumbers_are_refused(self, disk):
        scene, mesh, ops = disk
        efie = formulations.build_system(formulations.Formulation(kind="EFIE"), scene, mesh,
                                         operators=ops)
        coarse = formulations.build_system(formulations.Formulation(kind="EFIE"), scene,
                                           geometry.mesh_scene(scene, ppw=6))
        other_k = formulations.build_system(formulations.Formulation(kind="BW"),
                                            dataclasses.replace(scene, k=4.0), mesh)
        points = np.array([[3.0, 0.0]])
        for pair in ((efie, coarse), (efie, other_k)):
            with pytest.raises(ValueError, match="one mesh and one k"):
                formulations.scattered_fields(pair, [np.ones(s.n) for s in pair], points)
        with pytest.raises(ValueError, match="densities"):
            formulations.scattered_fields([efie], [], points)
