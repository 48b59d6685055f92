"""End-to-end checks of the package's accuracy and performance guarantees.

Each test covers one guarantee at its frozen tolerance and prints a
single PASS/FAIL line with the measured quantities, so a verbose run
doubles as a scorecard.  The desk-scale scene fixtures come from
conftest; the full-scale run is opt-in because of its cost.
"""

import os
import time

import numpy as np
import pytest
import scipy.special as sp

from multiscat import bem, cli, formulations, geometry, specfun, verify

DESK_RUNTIME_BUDGET = 30.0


def report(ok: bool, line: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {line}")


def _build_all(scene, mesh, ops):
    systems = {}
    for kind in formulations.FORMULATION_KINDS:
        form = formulations.Formulation(kind=kind)
        systems[kind] = formulations.build_system(form, scene, mesh, operators=ops)
    return systems


def test_preconditioned_direct_equations_coincide(desk, desk15, desk30):
    start = time.perf_counter()
    mesh15, ops15 = desk15
    mesh30, ops30 = desk30
    coarse = verify.check_direct_equality(desk, mesh15, operators=ops15)
    fine = verify.check_direct_equality(desk, mesh30, operators=ops30)
    elapsed = time.perf_counter() - start

    factors = {
        key: coarse.differences[key] / fine.differences[key]
        for key in coarse.differences
    }
    ok = (
        all(v <= verify.DESK_DIRECT_THRESHOLD for v in coarse.differences.values())
        and all(f >= 1.5 for f in factors.values())
        and elapsed <= DESK_RUNTIME_BUDGET
    )
    report(ok, "direct equations coincide after preconditioning: "
               f"max diff {max(coarse.differences.values()):.3e} <= 5e-02, "
               f"min refinement factor {min(factors.values()):.2f} >= 1.5 "
               f"({elapsed:.1f} s)")
    for key, value in coarse.differences.items():
        assert value <= verify.DESK_DIRECT_THRESHOLD, f"{key} difference {value:.3e}"
    for key, factor in factors.items():
        assert factor >= 1.5, f"{key} refinement factor {factor:.2f}"
    assert elapsed <= DESK_RUNTIME_BUDGET


def test_preconditioned_bw_is_similar_to_efie(desk, desk15, desk30):
    start = time.perf_counter()
    mesh15, ops15 = desk15
    mesh30, ops30 = desk30
    coarse = verify.check_bw_similarity(desk, mesh15, operators=ops15)
    fine = verify.check_bw_similarity(desk, mesh30, operators=ops30)
    elapsed = time.perf_counter() - start

    ok = (
        coarse.similarity_difference <= verify.DESK_SIMILARITY_THRESHOLD
        and fine.similarity_difference < coarse.similarity_difference
        and elapsed <= DESK_RUNTIME_BUDGET
    )
    report(ok, "BW is similar to the direct equations: "
               f"conjugation residual {coarse.similarity_difference:.3e} <= 1e-02, "
               f"refined {fine.similarity_difference:.3e} ({elapsed:.1f} s)")
    assert coarse.similarity_difference <= verify.DESK_SIMILARITY_THRESHOLD
    assert fine.similarity_difference < coarse.similarity_difference
    assert elapsed <= DESK_RUNTIME_BUDGET


def test_preconditioned_spectra_coincide(desk, desk15):
    start = time.perf_counter()
    mesh, ops = desk15
    spectra = verify.check_spectra(desk, mesh, operators=ops)
    elapsed = time.perf_counter() - start

    ok = (
        spectra.matched_max_rel_error <= verify.DESK_SPECTRUM_THRESHOLD
        and elapsed <= 60.0
    )
    report(ok, "preconditioned spectra coincide: "
               f"matched max rel error {spectra.matched_max_rel_error:.3e} <= 3e-02 "
               f"({elapsed:.1f} s)")
    assert spectra.matched_max_rel_error <= verify.DESK_SPECTRUM_THRESHOLD
    assert elapsed <= 60.0


def test_convergence_histories_superimpose(desk, desk15):
    mesh, ops = desk15
    histories = verify.convergence_histories(
        desk, mesh, operators=ops, restart=50, tol=1e-6
    )
    pre = {
        kind: histories.record(kind, True).iterations
        for kind in formulations.FORMULATION_KINDS
    }
    spread = max(pre.values()) - min(pre.values())
    improved = {}
    for kind in ("CFIE", "BW"):
        rec = histories.record(kind, True)
        improved[kind] = rec.converged and rec.iterations < histories.record(
            kind, False
        ).iterations

    ok = spread <= 1 and all(improved.values())
    report(ok, "preconditioned histories superimpose: "
               f"iteration counts {sorted(pre.values())} (spread {spread} <= 1), "
               f"CFIE improved {improved['CFIE']}, BW improved {improved['BW']}")
    assert spread <= 1, f"preconditioned iteration counts {pre}"
    for kind, flag in improved.items():
        assert flag, f"preconditioning did not strictly improve {kind}"


def test_disk_scattered_field_matches_the_series_for_all_formulations():
    start = time.perf_counter()
    errors = cli.disk_field_errors(cli.RunConfig(ppw=15.0, disk_k=5.0))
    elapsed = time.perf_counter() - start

    ok = (
        all(err <= cli.DISK_FIELD_THRESHOLD for err in errors.values())
        and elapsed <= 10.0
    )
    summary = ", ".join(f"{kind} {err:.3e}" for kind, err in errors.items())
    report(ok, f"disk field matches the series within 1e-02: {summary} "
               f"({elapsed:.1f} s)")
    for kind in formulations.FORMULATION_KINDS:
        assert errors[kind] <= cli.DISK_FIELD_THRESHOLD, (
            f"{kind} relative L2 field error {errors[kind]:.4e} "
            f"exceeds {cli.DISK_FIELD_THRESHOLD:.0e}"
        )
    assert elapsed <= 10.0


def test_bessel_values_and_wronskian_match_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    x = (1.0 - rng.random(10**4)) * 50.0  # uniform in (0, 50]
    j0, j1, y0, y1 = specfun.bessel_j0j1y0y1(x)
    value_err = max(
        np.max(np.abs(j0 - sp.j0(x))),
        np.max(np.abs(j1 - sp.j1(x))),
        np.max(np.abs(y0 - sp.y0(x))),
        np.max(np.abs(y1 - sp.y1(x))),
    )

    wronskian_err = 0.0
    for point in (1.0, 5.0, 20.0):
        j, y = specfun.bessel_arrays(60, point)
        wronskian = j[1:] * y[:-1] - j[:-1] * y[1:]
        wronskian_err = max(
            wronskian_err, float(np.max(np.abs(wronskian - 2.0 / (np.pi * point))))
        )
    elapsed = time.perf_counter() - start

    ok = value_err <= 1e-8 and wronskian_err <= 1e-9 and elapsed <= 5.0
    report(ok, f"cylinder functions match the reference: value error "
               f"{value_err:.2e} <= 1e-08, Wronskian error {wronskian_err:.2e} "
               f"<= 1e-09 ({elapsed:.1f} s)")
    assert value_err <= 1e-8
    assert wronskian_err <= 1e-9
    assert elapsed <= 5.0


def test_structural_invariants_of_the_preconditioned_systems(desk, desk15):
    start = time.perf_counter()
    mesh, ops = desk15
    systems = _build_all(desk, mesh, ops)

    block_defect = 0.0
    for system in systems.values():
        for p in range(mesh.n_obstacles):
            lo, hi = mesh.block_range(p)
            block = formulations.preconditioned_rows(system, p)[:, lo:hi]
            defect = np.max(np.abs(block - np.eye(hi - lo)))
            block_defect = max(block_defect, float(defect))

    eta = -1j * desk.k
    mfie_matrix = 0.5 * ops["mass"].toarray() + ops["adjoint_double_layer"].matrix
    expected = (1.0 - 0.2) * mfie_matrix + (0.2 * eta) * ops["single_layer"].matrix
    cfie_exact = np.array_equal(systems["CFIE"].rows(0, mesh.n_nodes), expected)

    kite = geometry.Scene(
        k=5.0, beta=(0.0, 1.0),
        obstacles=(geometry.Shape(kind="kite", s=0.8),),
        box=(-4.0, -4.0, 4.0, 4.0),
    )
    kite_mesh = geometry.mesh_scene(kite, ppw=8)
    kite_ops = bem.assemble_operators(kite_mesh, kite.k)
    kite_ops["mass"] = bem.assemble_mass(kite_mesh)
    single_counts = {}
    for kind, system in _build_all(kite, kite_mesh, kite_ops).items():
        pre = formulations.single_scattering_preconditioner(system)
        _, solve_report = formulations.solve(system, pre)
        assert solve_report.converged
        single_counts[kind] = solve_report.iterations
    elapsed = time.perf_counter() - start

    ok = (
        block_defect <= 1e-10
        and cfie_exact
        and max(single_counts.values()) <= 3
        and elapsed <= 10.0
    )
    report(ok, "structural invariants hold: diagonal block defect "
               f"{block_defect:.2e} <= 1e-10, CFIE combination exact {cfie_exact}, "
               f"single-obstacle iterations {sorted(single_counts.values())} <= 3 "
               f"({elapsed:.1f} s)")
    assert block_defect <= 1e-10
    assert cfie_exact, "CFIE matrix is not the literal weighted combination"
    for kind, count in single_counts.items():
        assert count <= 3, f"single-obstacle {kind} took {count} iterations"
    assert elapsed <= 10.0


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("MULTISCAT_FULL_SCALE"),
    reason="full-scale run is opt-in: set MULTISCAT_FULL_SCALE=1",
)
def test_full_scale_differences_stay_within_frozen_bounds():
    start = time.perf_counter()
    scene = verify.paper_scene(0)
    mesh = geometry.mesh_scene(scene, ppw=15)
    ops = bem.assemble_operators(mesh, scene.k)
    ops["mass"] = bem.assemble_mass(mesh)
    direct = verify.check_direct_equality(
        scene, mesh, operators=ops,
        thresholds={"EFIE/MFIE": 8e-2, "MFIE/CFIE": 8e-2, "EFIE/CFIE": 1.6e-2},
    )
    similar = verify.check_bw_similarity(scene, mesh, operators=ops, threshold=8e-4)
    elapsed = time.perf_counter() - start

    ok = all(direct.passed.values()) and all(similar.passed.values())
    report(ok, f"full-scale run ({mesh.n_nodes} unknowns): "
               f"diffs {direct.differences}, "
               f"similarity {similar.similarity_difference:.3e} "
               f"({elapsed / 60.0:.1f} min)")
    assert all(direct.passed.values()), direct.differences
    assert all(similar.passed.values()), similar.similarity_difference
