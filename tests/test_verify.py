"""Theorem checks: preconditioned systems coincide, BW is similar, spectra match."""

import tracemalloc

import numpy as np
import pytest

from multiscat import bem, formulations, geometry, linalg, verify

DIRECT_PAIR_KEYS = ("EFIE/MFIE", "MFIE/CFIE", "EFIE/CFIE")


@pytest.fixture(scope="module")
def single_kite():
    scene = geometry.Scene(
        k=5.0,
        beta=(0.0, 1.0),
        obstacles=(geometry.Shape(kind="kite", s=0.8),),
        box=(-4.0, -4.0, 4.0, 4.0),
    )
    mesh = geometry.mesh_scene(scene, ppw=8)
    ops = bem.assemble_operators(mesh, scene.k)
    ops["mass"] = bem.assemble_mass(mesh)
    return scene, mesh, ops


class TestSingleObstacleCollapse:
    """With one obstacle the preconditioner inverts the whole system, so every
    comparison degenerates to identity vs identity."""

    def test_direct_differences_vanish(self, single_kite):
        scene, mesh, ops = single_kite
        report = verify.check_direct_equality(scene, mesh, operators=ops)
        for key in DIRECT_PAIR_KEYS:
            assert report.differences[key] <= 1e-8
        assert all(report.passed.values())

    def test_similarity_difference_vanishes(self, single_kite):
        scene, mesh, ops = single_kite
        report = verify.check_bw_similarity(scene, mesh, operators=ops)
        assert report.similarity_difference <= 1e-6
        assert all(report.passed.values())

    def test_spectra_concentrate_at_one(self, single_kite):
        scene, mesh, ops = single_kite
        report = verify.check_spectra(scene, mesh, operators=ops)
        assert report.matched_max_rel_error <= 1e-8
        for eig in report.eigenvalues.values():
            assert np.abs(eig - 1.0).max() <= 1e-8


class TestDirectEquality:
    def test_desk_differences_within_threshold(self, desk, desk15):
        mesh, ops = desk15
        report = verify.check_direct_equality(desk, mesh, operators=ops)
        for key in DIRECT_PAIR_KEYS:
            assert report.differences[key] <= verify.DESK_DIRECT_THRESHOLD
            assert report.passed[key]
        assert report.similarity_difference is None

    def test_differences_decrease_under_refinement(self, desk, desk10, desk15, desk30):
        reports = [
            verify.check_direct_equality(desk, mesh, operators=ops)
            for mesh, ops in (desk10, desk15, desk30)
        ]
        for key in DIRECT_PAIR_KEYS:
            values = [r.differences[key] for r in reports]
            assert values[0] > values[1] > values[2]
            assert values[1] / values[2] >= 1.5

    def test_differences_do_not_depend_on_the_incident_wave(self, desk, desk15):
        mesh, ops = desk15
        rotated = geometry.Scene(
            k=desk.k,
            beta=(1.0, 0.0),
            obstacles=desk.obstacles,
            box=desk.box,
            min_center_distance=desk.min_center_distance,
            seed=desk.seed,
        )
        base = verify.check_direct_equality(desk, mesh, operators=ops)
        other = verify.check_direct_equality(rotated, mesh, operators=ops)
        assert base.differences == other.differences


class TestBwSimilarity:
    def test_desk_difference_within_threshold(self, desk, desk15):
        mesh, ops = desk15
        report = verify.check_bw_similarity(desk, mesh, operators=ops)
        assert report.similarity_difference <= verify.DESK_SIMILARITY_THRESHOLD
        assert all(report.passed.values())

    def test_difference_decreases_under_refinement(self, desk, desk10, desk15, desk30):
        values = [
            verify.check_bw_similarity(desk, mesh, operators=ops).similarity_difference
            for mesh, ops in (desk10, desk15, desk30)
        ]
        assert values[0] > values[1] > values[2]


def explicit_similarity_difference(scene, mesh, ops):
    """||P_E - T P_BW T^{-1}||_inf / ||P_BW||_inf with T = A_E^{-1} A_BW and
    every product and inverse formed explicitly."""

    def system_matrix(kind):
        form = formulations.Formulation(kind=kind)
        return formulations.build_system(form, scene, mesh, operators=ops).rows(0, mesh.n_nodes)

    def block_preconditioned(a):
        out = np.empty_like(a)
        for lo, hi in zip(mesh.block_offsets, mesh.block_offsets[1:]):
            out[lo:hi] = np.linalg.solve(a[lo:hi, lo:hi], a[lo:hi])
        return out

    def inf_norm(a):
        return np.abs(a).sum(axis=1).max()

    a_efie, a_bw = system_matrix("EFIE"), system_matrix("BW")
    p_bw = block_preconditioned(a_bw)
    transport = np.linalg.solve(a_efie, a_bw)
    conjugated = np.linalg.solve(transport.T, (transport @ p_bw).T).T
    return inf_norm(block_preconditioned(a_efie) - conjugated) / inf_norm(p_bw)


class TestBwSimilarityReference:
    def test_matches_the_explicit_conjugation(self, desk, desk10):
        mesh, ops = desk10
        report = verify.check_bw_similarity(desk, mesh, operators=ops)
        reference = explicit_similarity_difference(desk, mesh, ops)
        assert abs(report.similarity_difference - reference) <= 1e-10 * reference


CHECK_KINDS = {
    "check_direct_equality": verify.DIRECT_KINDS,
    "check_bw_similarity": ("EFIE", "BW"),
    "check_spectra": formulations.FORMULATION_KINDS,
    "convergence_histories": formulations.FORMULATION_KINDS,
}


def dense_systems(scene, ops) -> dict:
    """Each formulation's whole matrix at the default parameters, combined
    here from L, N and the dense mass in the formulations' order."""
    single, adjoint = ops["single_layer"].matrix, ops["adjoint_double_layer"].matrix
    mfie = 0.5 * ops["mass"].toarray() + adjoint
    return {
        "EFIE": single,
        "MFIE": mfie,
        "CFIE": (1.0 - 0.2) * mfie + (0.2 * -1j * scene.k) * single,
        "BW": -(0.5j * scene.k) * single + adjoint.T + 0.5 * ops["mass"].toarray(),
    }


@pytest.mark.parametrize("given", [True, False], ids=["operators", "no-operators"])
@pytest.mark.parametrize("check", sorted(CHECK_KINDS))
def test_each_check_builds_and_factors_each_system_once(desk, desk10, monkeypatch,
                                                        check, given):
    """Each formulation's diagonal block is factored once per obstacle, the
    operators are assembled only when none are given, the similarity check
    factors exactly one full-size matrix, every check reads its systems from
    ``formulations.systems`` and the GMRES histories build one per formulation.  A
    factored block is told apart by its entries, from the formulations'
    dense matrices."""
    mesh, ops = desk10
    calls = {"blocks": [], "assemble": 0, "full_lu": 0, "build": []}
    assemble = bem.assemble_operators
    lu_factor = linalg.lu_factor
    systems = formulations.systems

    def counting_assemble(*args, **kwargs):
        calls["assemble"] += 1
        return assemble(*args, **kwargs)

    def counting_lu_factor(a):
        if np.shape(a)[0] == mesh.n_nodes:
            calls["full_lu"] += 1
        else:
            calls["blocks"].append(np.array(a))
        return lu_factor(a)

    def counting_systems(*args, **kwargs):
        built = systems(*args, **kwargs)
        calls["build"].extend(built)
        return built

    monkeypatch.setattr(bem, "assemble_operators", counting_assemble)
    monkeypatch.setattr(formulations, "systems", counting_systems)
    monkeypatch.setattr(linalg, "lu_factor", counting_lu_factor)
    getattr(verify, check)(desk, mesh, operators=ops if given else None)
    monkeypatch.undo()
    dense = dense_systems(desk, ops)
    factored = {}
    for kind in CHECK_KINDS[check]:
        for p in range(mesh.n_obstacles):
            lo, hi = mesh.block_range(p)
            factored[kind, p] = sum(np.array_equal(block, dense[kind][lo:hi, lo:hi])
                                    for block in calls["blocks"])
    assert set(factored.values()) == {1}
    assert len(calls["blocks"]) == len(factored)
    assert calls["assemble"] == (0 if given else 1)
    assert calls["full_lu"] == (1 if check == "check_bw_similarity" else 0)
    assert set(calls["build"]) == set(CHECK_KINDS[check])
    if check == "convergence_histories":
        assert calls["build"] == list(CHECK_KINDS[check])


def traced_peak(run) -> int:
    """Peak bytes tracemalloc counts while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Bounds on each check's working set beside pre-assembled operators, in
# complex n x n matrices, as tracemalloc counts it (LAPACK's own workspace
# is not counted).  Each check holds at most a few obstacle row blocks
# besides the full-size buffers it needs: none for the direct check, the
# product and the LU of A_E for the similarity and one preconditioned matrix
# for the spectra; the GMRES histories hold one system's block LUs and
# Krylov basis.
CHECK_MEMORY_BOUNDS = {
    "check_direct_equality": 2.0,
    "check_bw_similarity": 3.5,
    "check_spectra": 2.1,
    "convergence_histories": 1.0,
}


@pytest.mark.parametrize("check", sorted(CHECK_MEMORY_BOUNDS))
def test_each_check_holds_a_bounded_working_set(desk, desk15, check):
    mesh, ops = desk15
    peak = traced_peak(lambda: getattr(verify, check)(desk, mesh, operators=ops))
    assert peak <= CHECK_MEMORY_BOUNDS[check] * 16 * mesh.n_nodes ** 2


def preconditioned_cfie_solve(desk, mesh, ops):
    system = formulations.build_system(
        formulations.Formulation(kind="CFIE"), desk, mesh, operators=ops)
    formulations.solve(system, formulations.single_scattering_preconditioner(system))


# The same unit for a system, the mass and a solve: a system is a view of
# the operators and the mass is three bands, so building either holds O(n);
# a preconditioned solve holds the block LUs and the Krylov basis.
SYSTEM_MEMORY_BOUNDS = {
    "build_system": (0.05, lambda desk, mesh, ops: formulations.build_system(
        formulations.Formulation(kind="CFIE"), desk, mesh, operators=ops)),
    "assemble_mass": (0.01, lambda desk, mesh, ops: bem.assemble_mass(mesh)),
    "preconditioned CFIE solve": (1.0, preconditioned_cfie_solve),
}


@pytest.mark.parametrize("name", sorted(SYSTEM_MEMORY_BOUNDS))
def test_systems_and_the_mass_hold_bounded_working_sets(desk, desk15, name):
    mesh, ops = desk15
    bound, run = SYSTEM_MEMORY_BOUNDS[name]
    assert traced_peak(lambda: run(desk, mesh, ops)) <= bound * 16 * mesh.n_nodes ** 2


def test_a_system_keeps_no_block_factor(desk, desk15):
    """The block LUs a system factors for its caller go with the caller's
    reference: what stays allocated afterwards is O(n), not the sum of the
    squared block sizes (about a third of n^2 on desk)."""
    mesh, ops = desk15
    system = formulations.build_system(
        formulations.Formulation(kind="CFIE"), desk, mesh, operators=ops)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        formulations.single_scattering_preconditioner(system)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 0.01 * 16 * mesh.n_nodes ** 2


class TestDenseReference:
    """The row-block checks against the whole preconditioned matrices."""

    @staticmethod
    def dense_preconditioned(desk, mesh, ops, kind):
        a = dense_systems(desk, ops)[kind]
        out = np.empty_like(a)
        for p in range(mesh.n_obstacles):
            lo, hi = mesh.block_range(p)
            out[lo:hi] = linalg.lu_solve(linalg.lu_factor(a[lo:hi, lo:hi]), a[lo:hi])
        return out

    def test_direct_differences(self, desk, desk10):
        mesh, ops = desk10
        dense = {kind: self.dense_preconditioned(desk, mesh, ops, kind)
                 for kind in verify.DIRECT_KINDS}
        report = verify.check_direct_equality(desk, mesh, operators=ops)
        for x, y in verify.DIRECT_PAIRS:
            reference = linalg.inf_norm(dense[x] - dense[y]) / linalg.inf_norm(dense[y])
            assert abs(report.differences[f"{x}/{y}"] - reference) <= 1e-13 * reference

    def test_eigenvalues(self, desk, desk10):
        mesh, ops = desk10
        report = verify.check_spectra(desk, mesh, operators=ops)
        for kind in formulations.FORMULATION_KINDS:
            dense = self.dense_preconditioned(desk, mesh, ops, kind)
            # the report reorders LAPACK's output (SpectrumReport), so the
            # two agree as multisets
            assert np.array_equal(np.sort(report.eigenvalues[kind]),
                                  np.sort(linalg.eigenvalues(dense)))


class TestSpectra:
    def test_matched_error_and_clustering(self, desk, desk15):
        mesh, ops = desk15
        report = verify.check_spectra(desk, mesh, operators=ops)
        assert report.matched_max_rel_error <= verify.DESK_SPECTRUM_THRESHOLD
        n = mesh.n_nodes
        for kind in formulations.FORMULATION_KINDS:
            eig = report.eigenvalues[kind]
            assert eig.shape == (n,)
            assert np.mean(np.abs(eig - 1.0) <= 0.5) >= 0.5

    def test_matchings_are_permutations(self, desk, desk15):
        """The rows come in the canonical order: EFIE's sorted by (real,
        imag), and row i of every other formulation matched to EFIE's row i."""
        mesh, ops = desk15
        report = verify.check_spectra(desk, mesh, operators=ops)
        efie = report.eigenvalues["EFIE"]
        assert np.array_equal(efie, np.sort(efie))
        worst = max(float(np.max(np.abs(report.eigenvalues[kind] - efie) / np.abs(efie)))
                    for kind in ("MFIE", "CFIE", "BW"))
        assert worst == report.matched_max_rel_error


@pytest.fixture(scope="module")
def history_report(desk, desk15):
    mesh, ops = desk15
    return verify.convergence_histories(desk, mesh, operators=ops)


class TestConvergenceHistories:
    def test_eight_systems_recorded(self, history_report):
        report = history_report
        assert len(report.records) == 8
        seen = {(r.formulation, r.preconditioned) for r in report.records}
        assert len(seen) == 8
        for rec in report.records:
            assert len(rec.residual_history) >= 1
            assert rec.residual_history[0] == 1.0

    def test_preconditioned_counts_agree_within_one(self, history_report):
        counts = [
            history_report.record(kind, True).iterations
            for kind in formulations.FORMULATION_KINDS
        ]
        assert max(counts) - min(counts) <= 1

    def test_preconditioning_strictly_helps_cfie_and_bw(self, history_report):
        for kind in ("CFIE", "BW"):
            plain = history_report.record(kind, False)
            cond = history_report.record(kind, True)
            assert plain.converged and cond.converged
            assert cond.iterations < plain.iterations

    def test_preconditioned_histories_superimpose(self, history_report):
        """The four preconditioned residual curves track each other closely;
        the direct ones within a few percent, BW a little looser near the
        bottom of the residual drop."""
        reference = np.array(history_report.record("EFIE", True).residual_history)
        for kind, bound in (("MFIE", 0.1), ("CFIE", 0.1), ("BW", 0.2)):
            history = np.array(history_report.record(kind, True).residual_history)
            m = min(history.size, reference.size)
            rel = np.abs(history[:m] - reference[:m]) / reference[:m]
            assert rel.max() <= bound

    def test_nonconvergence_is_recorded_not_raised(self, desk, desk15):
        mesh, ops = desk15
        capped = verify.convergence_histories(desk, mesh, operators=ops, maxiter=2)
        for kind in formulations.FORMULATION_KINDS:
            rec = capped.record(kind, False)
            assert not rec.converged
            assert rec.iterations == 2

    def test_missing_record_lookup_raises(self, history_report):
        with pytest.raises(KeyError):
            history_report.record("EFIE", None)


class TestPresets:
    def test_desk_scene_composition(self):
        scene = verify.desk_scene(0)
        assert scene.k == 5.0
        assert len(scene.obstacles) == 3
        assert sorted(s.kind for s in scene.obstacles) == [
            "ellipse",
            "kite",
            "rounded_rectangle",
        ]
        assert scene.box == (0.0, 0.0, 12.0, 12.0)
        scene.validate()

    def test_desk_scene_is_deterministic_per_seed(self):
        first = verify.desk_scene(3)
        second = verify.desk_scene(3)
        assert [s.center for s in first.obstacles] == [
            s.center for s in second.obstacles
        ]
        different = verify.desk_scene(4)
        assert [s.center for s in first.obstacles] != [
            s.center for s in different.obstacles
        ]

    def test_paper_scene_composition(self):
        scene = verify.paper_scene(0)
        assert scene.k == 20.0
        assert len(scene.obstacles) == 30
        kinds = [s.kind for s in scene.obstacles]
        assert kinds.count("ellipse") == 10
        assert kinds.count("rounded_rectangle") == 10
        assert kinds.count("kite") == 10
        assert scene.box == (0.0, 0.0, 60.0, 60.0)
        scene.validate()
