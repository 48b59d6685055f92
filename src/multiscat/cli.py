"""Command-line front end: scene files, verification runs, solver output.

Subcommands:

    scene          resolve a preset (or normalize a scene file) and write it
    verify         theorem checks plus GMRES histories on a scene
    spectrum       eigenvalues of the four preconditioned matrices
    solve          solve one formulation and write density plus history
    validate-disk  field accuracy of all formulations against the disk series

Every command is a pure function of its scene file and flags: a rerun
produces byte-identical outputs.  Each command writes one JSON report;
per-iteration residuals, eigenvalues, and densities are also written as
CSV, whose column order is part of the format contract.  A scene file
holds exactly the keys ``scene_to_dict`` writes, with no defaults, and
finite JSON numbers.  Exit codes: 0 all enabled checks passed, 1 a
numeric threshold failed, 2 bad input, 3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import pathlib
import sys

import numpy as np

from . import analytic, bem, formulations, geometry, linalg, verify

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
PRESETS = ("desk", "paper")

RESIDUAL_COLUMNS = ("formulation", "preconditioned", "iteration", "residual")
EIGENVALUE_COLUMNS = ("formulation", "re", "im")
DENSITY_COLUMNS = ("obstacle", "node", "x", "y", "re", "im")

# Relative L2 accuracy demanded of each formulation's scattered field on
# the evaluation circle of the disk check.
DISK_FIELD_THRESHOLD = 1e-2
_DISK_RADIUS = 1.0
_DISK_EVAL_RADIUS = 3.0
_DISK_EVAL_POINTS = 200

EXIT_PASS = 0
EXIT_THRESHOLD = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Peak-RSS growth over ``main`` beyond ``_peak_bytes``'s buffers (scipy's modules, BLAS,
# the allocator, assembly's pieces and panel-pair lists, an expanded obstacle pair's node
# moments, and its one tile's array, at most 12 MB by ``bem._BAND_PANELS``), with no
# worker thread: at most 75.7 MiB, by verify at paper scale, 50 on 704-1872 unknowns
# (2-core x86-64, one BLAS thread); plus 20%, rounded up.
_FIXED_BYTES = 91 * 2**20
# Each worker thread of assembly and field evaluation (``bem._workers()``) keeps its
# own allocator arena: verify on desk at ppw 60 grew 1.7-2.2 MiB per worker from 1 to
# 8 and 16 patched CPUs, and two workers added up to 5.5 MiB on 704 and 887 unknowns;
# 2.75 MiB plus 20%, rounded up.
_WORKER_BYTES = 3 * 2**20

# the keys of a scene file and of each of its obstacles, as scene_to_dict writes them
_SCENE_KEYS = ("schema_version", "k", "beta", "box", "min_center_distance", "seed", "obstacles")
_OBSTACLE_KEYS = ("kind", "params", "center", "rotation")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: scene source, parameters, output place."""

    scene_path: str | None = None
    preset: str = "desk"
    seed: int = 0
    ppw: float = 15.0
    alpha: float = formulations.ALPHA
    eta: complex | None = None
    eta_bw: complex | None = None
    restart: int = linalg.GMRES_RESTART
    tol: float = linalg.GMRES_TOL
    maxiter: int = linalg.GMRES_MAXITER
    formulation: str = "CFIE"
    preconditioned: bool = True
    disk_k: float = 5.0
    out_dir: str = "."

    def validate(self) -> "RunConfig":
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        geometry.check_ppw(self.ppw)
        linalg.check_gmres_settings(self.restart, self.tol, self.maxiter)
        geometry.check_positive(self.disk_k, "wavenumber")
        # Formulation.resolved checks the kind and every coupling, whichever
        # formulation runs; no check depends on k, so any positive k will do
        _parameter_doc(self, 1.0)
        return self


# ---------------------------------------------------------------------------
# scene files


def scene_to_dict(scene: geometry.Scene) -> dict:
    """Plain-data form of a scene, ready for JSON, keyed by ``_SCENE_KEYS``
    and each obstacle by ``_OBSTACLE_KEYS``."""
    obstacles = [dict(zip(_OBSTACLE_KEYS, (
        shape.kind, {name: getattr(shape, name) for name in geometry.SHAPE_PARAMS[shape.kind]},
        [shape.center[0], shape.center[1]], shape.rotation), strict=True))
        for shape in scene.obstacles]
    return dict(zip(_SCENE_KEYS, (
        SCHEMA_VERSION, scene.k, [scene.beta[0], scene.beta[1]], list(scene.box),
        scene.min_center_distance, scene.seed, obstacles), strict=True))


def _fields(value, keys, name: str) -> list:
    """The values of ``keys`` in ``value``, a JSON object with exactly those keys."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    missing, unexpected = set(keys) - value.keys(), value.keys() - set(keys)
    if missing:
        raise ValueError(f"{name} is missing keys {sorted(missing)}")
    if unexpected:
        raise ValueError(f"{name} has unexpected keys {sorted(unexpected)}")
    return [value[key] for key in keys]


def _number(value, name: str) -> float:
    """``value``, a finite JSON number and not a string or boolean, as a float."""
    if isinstance(value, bool):
        raise ValueError(f"scene numbers must not be true or false ({name})")
    if not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


def _whole(value, name: str) -> int:
    if not _number(value, name).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _numbers(value, length: int, name: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise ValueError(f"{name} must be a list of {length} numbers")
    return tuple(_number(v, name) for v in value)


def scene_from_dict(doc: dict) -> geometry.Scene:
    """Rebuild and validate a scene from its plain-data form, which holds
    exactly the keys ``scene_to_dict`` writes: there are no defaults."""
    version, k, beta, box, distance, seed, entries = _fields(doc, _SCENE_KEYS, "scene document")
    if _whole(version, "schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported scene schema_version {version!r}")
    if not isinstance(entries, list):
        raise ValueError("obstacles must be a list")
    shapes = []
    for i, entry in enumerate(entries):
        kind, params, center, rotation = _fields(entry, _OBSTACLE_KEYS, f"obstacle {i}")
        if kind not in geometry.SHAPE_KINDS:
            raise ValueError(f"obstacle {i}: unknown kind {kind!r}")
        names = geometry.SHAPE_PARAMS[kind]
        sizes = _fields(params, names, f"obstacle {i}: params")
        shapes.append(geometry.Shape(
            kind=kind, center=_numbers(center, 2, f"obstacle {i}: center"),
            rotation=_number(rotation, f"obstacle {i}: rotation"),
            **{key: (_whole if key == "p" else _number)(val, f"obstacle {i}: {key}")
               for key, val in zip(names, sizes)}))
    scene = geometry.Scene(
        k=_number(k, "k"), beta=_numbers(beta, 2, "beta"), obstacles=tuple(shapes),
        box=_numbers(box, 4, "box"), min_center_distance=_number(distance, "min_center_distance"),
        seed=_whole(seed, "seed"))
    scene.validate()
    return scene


def write_scene(scene: geometry.Scene, path) -> None:
    _write_json(pathlib.Path(path), scene_to_dict(scene))


def read_scene(path) -> geometry.Scene:
    return scene_from_dict(json.loads(pathlib.Path(path).read_text()))


def _resolve_scene(cfg: RunConfig) -> geometry.Scene:
    if cfg.scene_path is not None:
        return read_scene(cfg.scene_path)
    if cfg.preset == "desk":
        return verify.desk_scene(cfg.seed)
    return verify.paper_scene(cfg.seed)


def _peak_bytes(command: str, cfg: RunConfig, counts) -> int:
    """``_FIXED_BYTES``, ``_WORKER_BYTES`` per worker thread, and the dense
    complex buffers ``command`` ("solve KIND" for a solve) holds at its
    peak, each marked where it is allocated, on obstacles of ``counts``
    nodes: n in all, b on the largest.  The coupling rank r of the checks
    is at most the sum of min(b_p, n - b_p)."""
    n, b = sum(counts), max(counts)
    r = sum(min(c, n - c) for c in counts)
    kinds = command.split()[1:] or formulations.FORMULATION_KINDS
    entries = len(formulations.operator_kinds(kinds)) * n * n
    if command == "verify":  # the direct check's row blocks, or the similarity's factors
        entries += max(5 * b * n,
                       2 * n * r + r * r + sum(c * c for c in counts) + 3 * b * r + 3 * b * n)
    elif command == "spectrum":  # the shared bases, S and its eigensolve's copy (later the
        # matching's float distances, sorted levels and one level's graph), the pieces
        entries += n * r + 2 * min(r, linalg.EIG_DIM_LIMIT) ** 2 + 3 * b * r + 3 * b * n
    else:  # every block LU beside the rows of the one being factored
        entries += sum(c * c for c in counts) + b * b
        if command != "validate-disk":  # a solve's GMRES basis; validate-disk solves by LU
            entries += n * (min(cfg.restart, cfg.maxiter) + 1)
    return _FIXED_BYTES + bem._workers() * _WORKER_BYTES + 16 * entries


def _meshed(command: str, cfg: RunConfig, scene: geometry.Scene | None = None):
    """The scene (``cfg``'s, unless given) and its mesh at ``cfg.ppw``, unless
    ``_peak_bytes`` exceed the available memory, checked before meshing."""
    scene = _resolve_scene(cfg) if scene is None else scene
    counts = geometry.obstacle_node_counts(scene, cfg.ppw)
    linalg.check_memory(_peak_bytes(command, cfg, counts), f"{command} on {sum(counts)} unknowns")
    return scene, geometry.mesh_scene(scene, cfg.ppw)


# ---------------------------------------------------------------------------
# report plumbing


def _out_dir(cfg: RunConfig) -> pathlib.Path:
    out = pathlib.Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: pathlib.Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _parameter_doc(cfg: RunConfig, k: float) -> dict:
    form = formulations.Formulation(cfg.formulation, cfg.alpha, cfg.eta, cfg.eta_bw).resolved(k)
    return {
        "alpha": cfg.alpha,
        "eta": _complex_pair(form.eta),
        "eta_bw": _complex_pair(form.eta_bw),
        "restart": cfg.restart,
        "tol": cfg.tol,
        "maxiter": cfg.maxiter,
    }


def _report(command: str, cfg: RunConfig, scene, mesh, **fields) -> dict:
    """A command's report on a scene: what ran, on which mesh, then ``fields``."""
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "scene": scene_to_dict(scene), "ppw": cfg.ppw, "unknowns": mesh.n_nodes,
            "parameters": _parameter_doc(cfg, scene.k), **fields}


def _write_csv(path: pathlib.Path, columns, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def _residual_rows(records):
    return ([rec.formulation, "true" if rec.preconditioned else "false", i, float(residual)]
            for rec in records for i, residual in enumerate(rec.residual_history))


def _verdict(name: str, ok: bool, value: float | None = None, bound: float | None = None) -> bool:
    """Print the PASS/FAIL line of one check, with its value and bound when
    given, and return ``ok``."""
    measured = "" if value is None else f": {value:.6e} (bound {bound:.1e})"
    print(f"{'PASS' if ok else 'FAIL'}  {name}{measured}")
    return ok


# ---------------------------------------------------------------------------
# commands


def cmd_scene(cfg: RunConfig) -> int:
    """Resolve the scene and write it as a JSON document."""
    scene = _resolve_scene(cfg)
    path = _out_dir(cfg) / "scene.json"
    write_scene(scene, path)
    print(f"wrote {path} ({len(scene.obstacles)} obstacles, k={scene.k:g})")
    return EXIT_PASS


def cmd_verify(cfg: RunConfig) -> int:
    """Run the equality and similarity checks plus the GMRES histories."""
    scene, mesh = _meshed("verify", cfg)
    logger.info("verify: %d unknowns over %d obstacles", mesh.n_nodes, mesh.n_obstacles)
    ops = formulations.checked_operators(formulations.FORMULATION_KINDS, scene, mesh)

    direct = verify.check_direct_equality(scene, mesh, cfg.alpha, cfg.eta, operators=ops)
    similar = verify.check_bw_similarity(scene, mesh, cfg.eta_bw, operators=ops)
    histories = verify.convergence_histories(
        scene, mesh, cfg.alpha, cfg.eta, cfg.eta_bw, operators=ops,
        restart=cfg.restart, tol=cfg.tol, maxiter=cfg.maxiter,
    )

    verdicts = [(f"direct {key}", direct.passed[key], value, direct.thresholds[key])
                for key, value in direct.differences.items()]
    verdicts.append(("similarity EFIE/BW", similar.passed["EFIE/BW"],
                     similar.similarity_difference, similar.thresholds["EFIE/BW"]))
    verdicts += histories.passed.items()
    checks = {verdict[0]: _verdict(*verdict) for verdict in verdicts}

    out = _out_dir(cfg)
    doc = _report(
        "verify", cfg, scene, mesh,
        differences=direct.differences,
        similarity_difference=similar.similarity_difference,
        thresholds={**direct.thresholds, **similar.thresholds},
        iterations=[{key: getattr(rec, key) for key in
                     ("formulation", "preconditioned", "iterations", "converged")}
                    for rec in histories.records],
        checks=checks,
        passed=all(checks.values()),
    )
    _write_json(out / "verify.json", doc)
    _write_csv(out / "residuals.csv", RESIDUAL_COLUMNS, _residual_rows(histories.records))
    return EXIT_PASS if doc["passed"] else EXIT_THRESHOLD


def cmd_spectrum(cfg: RunConfig) -> int:
    """Eigenvalues of the four preconditioned matrices, matched to EFIE."""
    scene, mesh = _meshed("spectrum", cfg)
    logger.info("spectrum: %d unknowns", mesh.n_nodes)
    report = verify.check_spectra(scene, mesh, cfg.alpha, cfg.eta, cfg.eta_bw)
    error, bound = report.matched_max_rel_error, report.threshold
    passed = all([_verdict(name, ok, error, bound) for name, ok in report.passed.items()])

    out = _out_dir(cfg)
    doc = _report("spectrum", cfg, scene, mesh, matched_max_rel_error=error,
                  matched_rel_errors=report.matched_rel_errors, threshold=bound, passed=passed)
    _write_json(out / "spectrum.json", doc)
    _write_csv(out / "eigenvalues.csv", EIGENVALUE_COLUMNS,
               ([kind, float(value.real), float(value.imag)]
                for kind, values in report.eigenvalues.items() for value in values))
    return EXIT_PASS if passed else EXIT_THRESHOLD


def cmd_solve(cfg: RunConfig) -> int:
    """Solve one formulation on the scene and write density and history."""
    scene, mesh = _meshed(f"solve {cfg.formulation}", cfg)
    form = formulations.Formulation(
        kind=cfg.formulation, alpha=cfg.alpha, eta=cfg.eta, eta_bw=cfg.eta_bw
    )
    system = formulations.build_system(form, scene, mesh)
    pre = formulations.single_scattering_preconditioner(system) if cfg.preconditioned else None
    density, report = formulations.solve(
        system, pre, restart=cfg.restart, tol=cfg.tol, maxiter=cfg.maxiter
    )
    record = verify.SolveRecord.of(cfg.formulation, cfg.preconditioned, report)
    state = "converged" if report.converged else "did not converge"
    print(f"{cfg.formulation} ({'preconditioned' if cfg.preconditioned else 'plain'}) "
          f"{state} after {report.iterations} iterations, "
          f"final residual {record.residual_history[-1]:.6e}")

    out = _out_dir(cfg)
    doc = _report("solve", cfg, scene, mesh, formulation=cfg.formulation,
                  preconditioned=cfg.preconditioned, iterations=report.iterations,
                  converged=report.converged, final_residual=record.residual_history[-1])
    _write_json(out / "solve.json", doc)
    _write_csv(out / "residuals.csv", RESIDUAL_COLUMNS, _residual_rows([record]))
    _write_csv(out / "density.csv", DENSITY_COLUMNS,
               ([p, i, float(mesh.nodes[i, 0]), float(mesh.nodes[i, 1]),
                 float(density[i].real), float(density[i].imag)]
                for p in range(mesh.n_obstacles) for i in range(*mesh.block_range(p))))
    return EXIT_PASS if report.converged else EXIT_THRESHOLD


def disk_field_errors(cfg: RunConfig) -> dict[str, float]:
    """Relative L2 field error of every formulation for the unit disk at
    wavenumber ``cfg.disk_k``.

    Each system is solved directly (LU); then all four scattered fields
    come from one ``formulations.scattered_fields`` call, one pass for the
    four densities' single layers and BW's double layer, and each is
    compared against the separation-of-variables series on a circle of
    radius 3 about the disk center.
    """
    scene, mesh = _meshed("validate-disk", cfg, geometry.Scene(
        k=cfg.disk_k,
        beta=(0.0, 1.0),
        obstacles=(geometry.Shape(kind="ellipse", a=_DISK_RADIUS, b=_DISK_RADIUS),),
        box=(-5.0, -5.0, 5.0, 5.0),
    ))

    theta = np.linspace(0.0, 2.0 * np.pi, _DISK_EVAL_POINTS, endpoint=False)
    points = _DISK_EVAL_RADIUS * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    reference = analytic.mie_scattered(
        analytic.MieConfig(k=scene.k, radius=_DISK_RADIUS, beta=scene.beta), points
    )
    scale = np.linalg.norm(reference)

    systems = formulations.systems(formulations.FORMULATION_KINDS, scene, mesh,
                                   cfg.alpha, cfg.eta, cfg.eta_bw)
    # the disk is the one obstacle, so its diagonal block is the whole matrix
    densities = [linalg.lu_solve(system.block_lu(0), system.rhs) for system in systems.values()]
    fields = formulations.scattered_fields(systems.values(), densities, points)
    errors = {}
    for kind, field in zip(systems, fields):
        errors[kind] = float(np.linalg.norm(field.values - reference) / scale)
        logger.info("disk %s: relative L2 field error %.3e", kind, errors[kind])
    return errors


def cmd_validate_disk(cfg: RunConfig) -> int:
    """Check every formulation's field accuracy on the unit disk."""
    errors = disk_field_errors(cfg)
    checks = {kind: _verdict(f"disk field {kind}", err <= DISK_FIELD_THRESHOLD, err,
                             DISK_FIELD_THRESHOLD) for kind, err in errors.items()}

    out = _out_dir(cfg)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "validate-disk",
        "disk": {
            "k": cfg.disk_k,
            "radius": _DISK_RADIUS,
            "ppw": cfg.ppw,
            "evaluation_radius": _DISK_EVAL_RADIUS,
            "evaluation_points": _DISK_EVAL_POINTS,
        },
        "parameters": _parameter_doc(cfg, cfg.disk_k),
        "errors": errors,
        "threshold": DISK_FIELD_THRESHOLD,
        "checks": checks,
        "passed": all(checks.values()),
    }
    _write_json(out / "validate_disk.json", doc)
    return EXIT_PASS if doc["passed"] else EXIT_THRESHOLD


# ---------------------------------------------------------------------------
# argument parsing


def _scene_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--scene", dest="scene_path", metavar="PATH",
                        help="scene file to load")
    # no default here: argparse could not tell an explicit --preset from it
    source.add_argument("--preset", choices=PRESETS,
                        help=f"built-in scene preset (default: {RunConfig.preset})")
    parser.add_argument("--seed", type=int, default=RunConfig.seed,
                        help="placement seed for presets (default: %(default)s)")


def _formulation_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=RunConfig.alpha,
                        help="CFIE combination weight in (0, 1) (default: %(default)s)")
    parser.add_argument("--eta-re", type=float,
                        help="real part of the CFIE coupling (default: 0)")
    parser.add_argument("--eta-im", type=float,
                        help="imaginary part of the CFIE coupling (default: -k)")
    parser.add_argument("--eta-bw-re", type=float,
                        help="real part of the BW coupling (default: 0)")
    parser.add_argument("--eta-bw-im", type=float,
                        help="imaginary part of the BW coupling (default: k/2)")


def _solver_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--restart", type=int, default=RunConfig.restart,
                        help="GMRES restart length (default: %(default)s)")
    parser.add_argument("--tol", type=float, default=RunConfig.tol,
                        help="GMRES relative residual tolerance (default: %(default)s)")
    parser.add_argument("--maxiter", type=int, default=RunConfig.maxiter,
                        help="GMRES total iteration cap (default: %(default)s)")


def _common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ppw", type=float, default=RunConfig.ppw,
                        help="mesh points per wavelength, at least 4 (default: %(default)s)")
    parser.add_argument("--out", dest="out_dir", default=RunConfig.out_dir, metavar="DIR",
                        help="output directory (default: %(default)s)")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiscat",
        description="Multiple-scattering boundary element solver and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene", help="write a resolved scene file")
    _scene_options(p)
    _common_options(p)
    p.set_defaults(func=cmd_scene)

    p = sub.add_parser("verify", help="equality and similarity checks plus histories")
    _scene_options(p)
    _formulation_options(p)
    _solver_options(p)
    _common_options(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="eigenvalues of the preconditioned matrices")
    _scene_options(p)
    _formulation_options(p)
    _common_options(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("solve", help="solve one formulation on a scene")
    _scene_options(p)
    _formulation_options(p)
    _solver_options(p)
    _common_options(p)
    p.add_argument("--formulation", choices=formulations.FORMULATION_KINDS,
                   default=RunConfig.formulation,
                   help="integral equation to solve (default: %(default)s)")
    p.add_argument("--plain", dest="preconditioned", action="store_false",
                   default=RunConfig.preconditioned,
                   help="solve without the single-scattering preconditioner")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate-disk", help="disk field accuracy for all formulations")
    _formulation_options(p)
    _common_options(p)
    p.add_argument("--k", dest="disk_k", type=float, default=RunConfig.disk_k, metavar="K",
                   help="wavenumber for the unit disk (default: %(default)s)")
    p.set_defaults(func=cmd_validate_disk)

    return parser


def _complex_flag(re: float | None, im: float | None) -> complex | None:
    if re is None and im is None:
        return None
    return complex(re if re is not None else 0.0, im if im is not None else 0.0)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """A RunConfig from parsed flags; every field a subcommand does not set,
    or that was left unset, keeps its RunConfig default."""
    options = dict(vars(args))
    options["eta"] = _complex_flag(options.get("eta_re"), options.get("eta_im"))
    options["eta_bw"] = _complex_flag(options.get("eta_bw_re"), options.get("eta_bw_im"))
    given = {
        field.name: options[field.name]
        for field in dataclasses.fields(RunConfig)
        if options.get(field.name) is not None
    }
    return RunConfig(**given).validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    try:
        cfg = _config_from_args(args)
        return args.func(cfg)
    except linalg.SingularMatrixError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError, KeyError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
