"""The three benchmark workloads: inputs from a seed, one operation, and the
benchmark's own correctness checks on what the operation produced.

Each workload isolates different modules (see BENCHMARK.json for why):

    desk-cli       ``multiscat verify`` then ``multiscat spectrum`` on the desk
                   preset at ppw 15, called in-process through ``cli.main``.
                   Assembly (specfun + bem) is most of it.
    desk30-checks  the four theorem checks on desk operators at ppw 30 that
                   set-up assembled once.  Dense linear algebra is most of it.
    disk-field     ``multiscat validate-disk`` then a field map: the four
                   formulations solved with the block preconditioner and
                   their scattered fields evaluated on a receiver grid.
                   Off-surface potential evaluation is most of it.

An operation returns an ``Outcome``.  It names a problem in ``problems`` when
a report is missing or unparseable, a number is not finite, the unknown count
is wrong, or the command exited with 2 or 3; the caller then counts the
operation as failed.  A numeric verdict of the program that fails (exit 1)
is not a failed operation: it counts in ``checks_failed``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import time

import numpy as np

from multiscat import analytic, bem, cli, formulations, geometry, verify

DESK_CLI_PPW, DESK_CLI_UNKNOWNS = 15.0, 223
DESK30_PPW, DESK30_UNKNOWNS = 30.0, 444
DISK_UNKNOWNS = 75
DISK_K = 5.0
DISK_PPW = 15.0
# The field map: a 48 x 48 grid over [-4, 4]^2 minus the points within 1.2
# of the unit disk's center, which keeps every receiver further from the
# boundary than a panel is long (no near-boundary flags).
GRID_SIDE = 48
GRID_HALF_WIDTH = 4.0
GRID_EXCLUSION_RADIUS = 1.2
# The benchmark's own sanity bound on the field map against the disk series.
# It is loose on purpose: the program's accuracy gate is validate-disk's
# 1e-2, reported in checks_failed, and this only catches a wrong map.
FIELD_MAP_TOLERANCE = 5e-2


@dataclasses.dataclass
class Outcome:
    stages: dict[str, float]
    hashes: dict[str, str] = dataclasses.field(default_factory=dict)
    checks_passed: int = 0
    checks_failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    unknowns: int = 0
    report_bytes: int = 0
    values: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _all_finite(doc) -> bool:
    if isinstance(doc, float):
        return math.isfinite(doc)
    if isinstance(doc, dict):
        return all(_all_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_all_finite(v) for v in doc)
    return True


def _run_cli(argv: list[str], out: io.StringIO) -> tuple[int, float]:
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, time.perf_counter() - start


def _read_reports(outcome: Outcome, directory: pathlib.Path, json_names, csv_names) -> dict:
    """Hash and parse the reports a command wrote; returns the JSON documents."""
    docs = {}
    for name in (*json_names, *csv_names):
        path = directory / name
        if not path.is_file():
            outcome.problems.append(f"{name} missing")
            continue
        data = path.read_bytes()
        outcome.hashes[name] = _sha256(data)
        outcome.report_bytes += len(data)
        try:
            text = data.decode()
            if name in json_names:
                docs[name] = json.loads(text)
                finite = _all_finite(docs[name])
            else:
                rows = list(csv.reader(io.StringIO(text)))[1:]
                finite = all(math.isfinite(float(cell)) for row in rows for cell in row[-2:])
        except (UnicodeDecodeError, ValueError) as exc:
            outcome.problems.append(f"{name} unparseable: {exc}")
            continue
        if not finite:
            outcome.problems.append(f"{name} holds a non-finite number")
    return docs


def _exit_problem(outcome: Outcome, command: str, code: int) -> None:
    if code not in (cli.EXIT_PASS, cli.EXIT_THRESHOLD):
        outcome.problems.append(f"{command} exited {code}")


def _count_verdicts(outcome: Outcome, verdicts) -> None:
    for ok in verdicts:
        if ok:
            outcome.checks_passed += 1
        else:
            outcome.checks_failed += 1


# ---------------------------------------------------------------------------
# desk-cli


def desk_cli_setup(seed: int) -> int:
    return seed


def desk_cli_op(seed: int, workdir: pathlib.Path) -> Outcome:
    common = ["--preset", "desk", "--seed", str(seed), "--ppw", f"{DESK_CLI_PPW:g}",
              "--out", str(workdir)]
    code_v, verify_s = _run_cli(["verify", *common], io.StringIO())
    code_s, spectrum_s = _run_cli(["spectrum", *common], io.StringIO())
    outcome = Outcome(stages={"verify_s": verify_s, "spectrum_s": spectrum_s})
    _exit_problem(outcome, "verify", code_v)
    _exit_problem(outcome, "spectrum", code_s)
    docs = _read_reports(outcome, workdir, ("verify.json", "spectrum.json"),
                         ("residuals.csv", "eigenvalues.csv"))
    expected = DESK_CLI_UNKNOWNS  # the seed moves obstacles, not the unknown count
    if "verify.json" in docs:
        doc = docs["verify.json"]
        outcome.unknowns = doc["unknowns"]
        _count_verdicts(outcome, doc["checks"].values())
        outcome.values["direct_diff_max"] = max(doc["differences"].values())
        outcome.values["similarity_diff"] = doc["similarity_difference"]
        if doc["unknowns"] != expected:
            outcome.problems.append(f"verify has {doc['unknowns']} unknowns, not {expected}")
    if "spectrum.json" in docs:
        doc = docs["spectrum.json"]
        _count_verdicts(outcome, [doc["passed"]])
        outcome.values["spectrum_err"] = doc["matched_max_rel_error"]
        if doc["unknowns"] != expected:
            outcome.problems.append(f"spectrum has {doc['unknowns']} unknowns, not {expected}")
    return outcome


# ---------------------------------------------------------------------------
# desk30-checks


@dataclasses.dataclass
class DeskChecksState:
    scene: geometry.Scene
    mesh: geometry.SceneMesh
    operators: dict


def desk30_setup(seed: int) -> DeskChecksState:
    scene = verify.desk_scene(seed)
    mesh = geometry.mesh_scene(scene, DESK30_PPW)
    ops = bem.assemble_operators(mesh, scene.k)
    ops["mass"] = bem.assemble_mass(mesh)
    return DeskChecksState(scene=scene, mesh=mesh, operators=ops)


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def desk30_op(state: DeskChecksState, workdir: pathlib.Path) -> Outcome:
    scene, mesh, ops = state.scene, state.mesh, state.operators
    t0 = time.perf_counter()
    direct = verify.check_direct_equality(scene, mesh, operators=ops)
    t1 = time.perf_counter()
    similar = verify.check_bw_similarity(scene, mesh, operators=ops)
    t2 = time.perf_counter()
    spectra = verify.check_spectra(scene, mesh, operators=ops)
    t3 = time.perf_counter()
    histories = verify.convergence_histories(scene, mesh, operators=ops)
    t4 = time.perf_counter()
    outcome = Outcome(stages={"direct_s": t1 - t0, "similarity_s": t2 - t1,
                              "spectra_s": t3 - t2, "histories_s": t4 - t3})
    # The program writes no report here, so the benchmark serializes every
    # number the checks returned, with full float precision, and hashes that.
    report = {
        "unknowns": mesh.n_nodes,
        "differences": direct.differences,
        "similarity_difference": similar.similarity_difference,
        "matched_max_rel_error": spectra.matched_max_rel_error,
        "eigenvalues": {kind: [_floats(ev.real), _floats(ev.imag)]
                        for kind, ev in spectra.eigenvalues.items()},
        "histories": [[rec.formulation, rec.preconditioned, rec.iterations, rec.converged,
                       _floats(rec.residual_history)] for rec in histories.records],
    }
    outcome.hashes["checks.json"] = _sha256(json.dumps(report).encode())
    if not _all_finite(report):
        outcome.problems.append("a check returned a non-finite number")
    outcome.unknowns = mesh.n_nodes
    if mesh.n_nodes != DESK30_UNKNOWNS:
        outcome.problems.append(f"{mesh.n_nodes} unknowns, not {DESK30_UNKNOWNS}")
    _count_verdicts(outcome, [*direct.passed.values(), *similar.passed.values(),
                              spectra.matched_max_rel_error <= verify.DESK_SPECTRUM_THRESHOLD])
    outcome.values["direct_diff_max"] = max(direct.differences.values())
    outcome.values["similarity_diff"] = similar.similarity_difference
    outcome.values["spectrum_err"] = spectra.matched_max_rel_error
    return outcome


# ---------------------------------------------------------------------------
# disk-field


@dataclasses.dataclass
class DiskFieldState:
    beta: tuple[float, float]
    points: np.ndarray
    reference: np.ndarray


def receiver_grid() -> np.ndarray:
    axis = np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, GRID_SIDE)
    x, y = np.meshgrid(axis, axis)
    points = np.stack([x.ravel(), y.ravel()], axis=1)
    return points[np.hypot(points[:, 0], points[:, 1]) > GRID_EXCLUSION_RADIUS]


def disk_setup(seed: int) -> DiskFieldState:
    angle = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))
    beta = (math.cos(angle), math.sin(angle))
    points = receiver_grid()
    reference = analytic.mie_scattered(
        analytic.MieConfig(k=DISK_K, radius=1.0, beta=beta), points)
    return DiskFieldState(beta=beta, points=points, reference=reference)


def field_map(state: DiskFieldState) -> tuple[int, dict[str, np.ndarray]]:
    """Solve every formulation on the unit disk with the block
    preconditioner and evaluate its scattered field on the receiver grid."""
    scene = geometry.Scene(
        k=DISK_K, beta=state.beta,
        obstacles=(geometry.Shape(kind="ellipse", a=1.0, b=1.0),),
        box=(-5.0, -5.0, 5.0, 5.0),
    )
    mesh = geometry.mesh_scene(scene, DISK_PPW)
    ops = bem.assemble_operators(mesh, scene.k)
    ops["mass"] = bem.assemble_mass(mesh)
    fields = {}
    for kind in formulations.FORMULATION_KINDS:
        system = formulations.build_system(formulations.Formulation(kind=kind), scene, mesh,
                                           operators=ops)
        pre = formulations.single_scattering_preconditioner(system)
        density, _ = formulations.solve(system, pre)
        fields[kind] = formulations.scattered_field(system, density, state.points).values
    return mesh.n_nodes, fields


def disk_op(state: DiskFieldState, workdir: pathlib.Path) -> Outcome:
    code, validate_s = _run_cli(["validate-disk", "--k", f"{DISK_K:g}", "--ppw", f"{DISK_PPW:g}",
                                 "--out", str(workdir)], io.StringIO())
    start = time.perf_counter()
    unknowns, fields = field_map(state)
    outcome = Outcome(stages={"validate_s": validate_s,
                              "field_map_s": time.perf_counter() - start})
    _exit_problem(outcome, "validate-disk", code)
    docs = _read_reports(outcome, workdir, ("validate_disk.json",), ())
    if "validate_disk.json" in docs:
        doc = docs["validate_disk.json"]
        _count_verdicts(outcome, doc["checks"].values())
        outcome.values["disk_err_max"] = max(doc["errors"].values())
    outcome.unknowns = unknowns
    if unknowns != DISK_UNKNOWNS:
        outcome.problems.append(f"field map has {unknowns} unknowns, not {DISK_UNKNOWNS}")
    scale = np.linalg.norm(state.reference)
    digest = hashlib.sha256()
    for kind, values in fields.items():
        digest.update(np.ascontiguousarray(values).tobytes())
        if not np.all(np.isfinite(values)):
            outcome.problems.append(f"{kind} field map holds a non-finite value")
            continue
        error = float(np.linalg.norm(values - state.reference) / scale)
        outcome.values[f"field_err_{kind}"] = error
        if error > FIELD_MAP_TOLERANCE:
            outcome.problems.append(f"{kind} field map error {error:.3e} > {FIELD_MAP_TOLERANCE}")
    outcome.hashes["field_map.bin"] = digest.hexdigest()
    return outcome


# name -> (set-up from a seed, one operation)
WORKLOADS = {
    "desk-cli": (desk_cli_setup, desk_cli_op),
    "desk30-checks": (desk30_setup, desk30_op),
    "disk-field": (disk_setup, disk_op),
}
