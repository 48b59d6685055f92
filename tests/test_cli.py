"""Command-line interface: scene files, report formats, exit codes."""

import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import multiscat
from multiscat import bem, cli, formulations, geometry, linalg, verify


def run(*argv) -> int:
    return cli.main(list(argv))


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


COMMANDS = ("scene", "verify", "spectrum", "solve", "validate-disk")
COUPLING_FLAGS = ("--alpha", "--eta-re", "--eta-im", "--eta-bw-re", "--eta-bw-im")
FLOAT_FLAGS = {
    "scene": ("--ppw",),
    "verify": ("--ppw", *COUPLING_FLAGS, "--tol"),
    "spectrum": ("--ppw", *COUPLING_FLAGS),
    "solve": ("--ppw", *COUPLING_FLAGS, "--tol"),
    "validate-disk": ("--ppw", *COUPLING_FLAGS, "--k"),
}
NON_FINITE = ("nan", "inf", "-inf")


def refuse_large_allocations(monkeypatch):
    """Make np.empty and np.zeros fail as an exhausted memory would, above
    1e8 entries, so that a missing size guard cannot exhaust it for real."""
    for name in ("empty", "zeros"):
        allocate = getattr(np, name)

        def guarded(shape, *args, _allocate=allocate, **kwargs):
            if np.prod(shape) >= 10**8:
                raise MemoryError(f"refused an array of shape {shape}")
            return _allocate(shape, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)


def fail_on_large_arrays(monkeypatch):
    """Make np.zeros, np.empty and np.arange fail the test when asked for
    10^7 entries or more: an AssertionError maps to no exit code."""
    def shape_size(shape, *args, **kwargs):
        return np.prod(shape)

    def range_size(*args, **kwargs):
        return len(range(*args)) if all(isinstance(a, int) for a in args) else 0

    for name, size in (("zeros", shape_size), ("empty", shape_size), ("arange", range_size)):
        def guarded(*args, _allocate=getattr(np, name), _size=size, _name=name, **kwargs):
            assert _size(*args, **kwargs) < 10**7, f"np.{_name}{args} was asked for"
            return _allocate(*args, **kwargs)

        monkeypatch.setattr(np, name, guarded)


def numeric_paths(doc, prefix=()):
    """Key paths of every number in a scene document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_paths(value, (*prefix, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (*prefix, key)


SCENE_NUMBERS = [
    path for path in numeric_paths(cli.scene_to_dict(verify.desk_scene()))
    if path != ("schema_version",)
]


class TestSceneFiles:
    def test_round_trip(self):
        for scene in (verify.desk_scene(seed=3), verify.paper_scene(0)):
            assert cli.scene_from_dict(cli.scene_to_dict(scene)) == scene

    def test_rejects_wrong_schema_version(self):
        doc = cli.scene_to_dict(verify.desk_scene())
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            cli.scene_from_dict(doc)

    def test_rejects_missing_field(self):
        doc = cli.scene_to_dict(verify.desk_scene())
        del doc["beta"]
        with pytest.raises(ValueError, match="missing"):
            cli.scene_from_dict(doc)

    def test_rejects_unknown_kind(self):
        doc = cli.scene_to_dict(verify.desk_scene())
        doc["obstacles"][0]["kind"] = "pentagon"
        with pytest.raises(ValueError, match="unknown kind"):
            cli.scene_from_dict(doc)

    def test_rejects_unexpected_parameter(self):
        doc = cli.scene_to_dict(verify.desk_scene())
        doc["obstacles"][2]["params"]["a"] = 1.0  # kite takes only s
        with pytest.raises(ValueError, match="unexpected"):
            cli.scene_from_dict(doc)

    def test_scene_command_is_byte_deterministic(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run("scene", "--preset", "desk", "--seed", "7", "--out", str(first)) == 0
        assert run("scene", "--preset", "desk", "--seed", "7", "--out", str(second)) == 0
        assert (first / "scene.json").read_bytes() == (second / "scene.json").read_bytes()

    def test_scene_command_normalization_is_idempotent(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        run("scene", "--preset", "desk", "--out", str(first))
        code = run("scene", "--scene", str(first / "scene.json"), "--out", str(second))
        assert code == 0
        assert (first / "scene.json").read_bytes() == (second / "scene.json").read_bytes()

    def test_paper_preset_composition(self, tmp_path):
        assert run("scene", "--preset", "paper", "--out", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "scene.json").read_text())
        assert doc["k"] == 20.0
        assert len(doc["obstacles"]) == 30
        kinds = [entry["kind"] for entry in doc["obstacles"]]
        assert all(kinds.count(kind) == 10 for kind in geometry.SHAPE_KINDS)
        rebuilt = cli.scene_from_dict(doc)
        rebuilt.validate()


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify_cmd")
    code = run("verify", "--preset", "desk", "--ppw", "10", "--out", str(out))
    return code, out


class TestVerifyCommand:
    def test_all_checks_pass(self, verify_run):
        code, out = verify_run
        assert code == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["passed"] is True
        assert all(doc["checks"].values())
        assert set(doc["differences"]) == {"EFIE/MFIE", "MFIE/CFIE", "EFIE/CFIE"}
        assert 0.0 < doc["similarity_difference"] <= doc["thresholds"]["EFIE/BW"]
        assert doc["unknowns"] > 0

    def test_residual_csv_format(self, verify_run):
        _, out = verify_run
        header, rows = read_csv(out / "residuals.csv")
        assert header == list(cli.RESIDUAL_COLUMNS)
        groups = {}
        for formulation, preconditioned, iteration, residual in rows:
            groups.setdefault((formulation, preconditioned), []).append(
                (int(iteration), float(residual))
            )
        assert len(groups) == 8
        for history in groups.values():
            assert history[0] == (0, 1.0)
            assert [i for i, _ in history] == list(range(len(history)))

    def test_iteration_counts_recorded(self, verify_run):
        _, out = verify_run
        doc = json.loads((out / "verify.json").read_text())
        assert len(doc["iterations"]) == 8
        pre = [e["iterations"] for e in doc["iterations"] if e["preconditioned"]]
        assert len(pre) == 4
        assert max(pre) - min(pre) <= 1

    def test_rerun_writes_identical_reports(self, verify_run, tmp_path):
        _, out = verify_run
        assert run("verify", "--preset", "desk", "--ppw", "10", "--out", str(tmp_path)) == 0
        for name in ("verify.json", "residuals.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


@pytest.fixture(scope="module")
def spectrum_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("spectrum_cmd")
    code = run("spectrum", "--preset", "desk", "--ppw", "10", "--out", str(out))
    return code, out


class TestSpectrumCommand:
    def test_matched_within_threshold(self, spectrum_run):
        code, out = spectrum_run
        assert code == 0
        doc = json.loads((out / "spectrum.json").read_text())
        assert doc["passed"] is True
        assert doc["matched_max_rel_error"] <= doc["threshold"]

    def test_eigenvalue_csv_format(self, spectrum_run):
        _, out = spectrum_run
        doc = json.loads((out / "spectrum.json").read_text())
        header, rows = read_csv(out / "eigenvalues.csv")
        assert header == list(cli.EIGENVALUE_COLUMNS)
        assert len(rows) == 4 * doc["unknowns"]
        per_kind = {kind: [] for kind in formulations.FORMULATION_KINDS}
        for kind, re, im in rows:
            per_kind[kind].append(complex(float(re), float(im)))
        assert {len(values) for values in per_kind.values()} == {doc["unknowns"]}
        # canonical order: EFIE sorted by (real, imag), and row i of every
        # other block is the eigenvalue matched to EFIE row i
        efie = per_kind["EFIE"]
        assert efie == sorted(efie, key=lambda z: (z.real, z.imag))
        for kind in ("MFIE", "CFIE", "BW"):
            for value, reference in zip(per_kind[kind], efie):
                assert abs(value - reference) <= doc["threshold"] * abs(reference)

    def test_rerun_writes_identical_reports(self, spectrum_run, tmp_path):
        _, out = spectrum_run
        assert run("spectrum", "--preset", "desk", "--ppw", "10", "--out", str(tmp_path)) == 0
        for name in ("spectrum.json", "eigenvalues.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve_cmd")
    code = run("solve", "--preset", "desk", "--ppw", "10", "--out", str(out))
    return code, out


class TestSolveCommand:
    def test_converges(self, solve_run):
        code, out = solve_run
        assert code == 0
        doc = json.loads((out / "solve.json").read_text())
        assert doc["converged"] is True
        assert doc["formulation"] == "CFIE"
        assert doc["preconditioned"] is True
        assert doc["final_residual"] <= 1e-6
        assert 0 < doc["iterations"] <= 15

    def test_density_csv_covers_every_node(self, solve_run):
        _, out = solve_run
        doc = json.loads((out / "solve.json").read_text())
        header, rows = read_csv(out / "density.csv")
        assert header == list(cli.DENSITY_COLUMNS)
        assert len(rows) == doc["unknowns"]
        assert [int(row[1]) for row in rows] == list(range(doc["unknowns"]))
        assert sorted({int(row[0]) for row in rows}) == [0, 1, 2]

    def test_history_has_single_group(self, solve_run):
        _, out = solve_run
        _, rows = read_csv(out / "residuals.csv")
        assert {(row[0], row[1]) for row in rows} == {("CFIE", "true")}

    def test_scene_file_gives_identical_output(self, solve_run, tmp_path):
        _, preset_out = solve_run
        scene_dir = tmp_path / "scene"
        run("scene", "--preset", "desk", "--out", str(scene_dir))
        out = tmp_path / "fromfile"
        code = run("solve", "--scene", str(scene_dir / "scene.json"),
                   "--ppw", "10", "--out", str(out))
        assert code == 0
        for name in ("solve.json", "density.csv", "residuals.csv"):
            assert (out / name).read_bytes() == (preset_out / name).read_bytes()

    def test_plain_solve_takes_more_iterations(self, solve_run, tmp_path):
        _, preset_out = solve_run
        code = run("solve", "--preset", "desk", "--ppw", "10", "--plain",
                   "--out", str(tmp_path))
        assert code == 0
        plain = json.loads((tmp_path / "solve.json").read_text())
        pre = json.loads((preset_out / "solve.json").read_text())
        assert plain["preconditioned"] is False
        assert plain["converged"] is True
        assert plain["iterations"] > pre["iterations"]

    def test_maxiter_zero_reports_nonconvergence(self, tmp_path):
        code = run("solve", "--preset", "desk", "--ppw", "10", "--maxiter", "0",
                   "--out", str(tmp_path))
        assert code == 1
        doc = json.loads((tmp_path / "solve.json").read_text())
        assert doc["converged"] is False
        assert doc["iterations"] == 0
        _, rows = read_csv(tmp_path / "residuals.csv")
        assert rows == [["CFIE", "true", "0", "1.0"]]

    def test_restart_beyond_maxiter_runs_as_restart_equal_to_maxiter(
        self, tmp_path, monkeypatch
    ):
        refuse_large_allocations(monkeypatch)
        outs = {}
        for restart in ("1000", "1000000000"):
            outs[restart] = tmp_path / restart
            code = run("solve", "--preset", "desk", "--ppw", "10", "--restart", restart,
                       "--out", str(outs[restart]))
            assert code == 0
        docs = {key: json.loads((out / "solve.json").read_text()) for key, out in outs.items()}
        assert docs["1000000000"]["iterations"] == docs["1000"]["iterations"]
        for name in ("density.csv", "residuals.csv"):
            assert (outs["1000"] / name).read_bytes() == (outs["1000000000"] / name).read_bytes()

    def test_coupling_flags_reach_the_report(self, tmp_path):
        code = run("solve", "--preset", "desk", "--ppw", "4", "--formulation", "BW",
                   "--eta-bw-im", "4.0", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "solve.json").read_text())
        assert doc["parameters"]["eta_bw"] == [0.0, 4.0]


@pytest.fixture(scope="module")
def disk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("disk_cmd")
    code = run("validate-disk", "--out", str(out))
    doc = json.loads((out / "validate_disk.json").read_text())
    return code, doc


class TestValidateDisk:
    def test_single_layer_formulations_meet_the_bound(self, disk_run):
        _, doc = disk_run
        for kind in ("EFIE", "CFIE", "BW"):
            assert doc["errors"][kind] <= doc["threshold"]
            assert doc["checks"][kind] is True

    def test_mfie_accuracy_constant_is_reported_honestly(self, disk_run, tmp_path):
        # At the default resolution the MFIE meets the bound like the others.
        code, doc = disk_run
        assert doc["errors"]["MFIE"] <= doc["threshold"]
        assert doc["checks"]["MFIE"] is True
        assert doc["passed"] is True
        assert code == 0
        # A gate that is missed is reported as failed, not passed: at 6 points
        # per wavelength every error is about twice the bound.
        code = run("validate-disk", "--ppw", "6", "--out", str(tmp_path))
        coarse = json.loads((tmp_path / "validate_disk.json").read_text())
        for kind in formulations.FORMULATION_KINDS:
            assert coarse["errors"][kind] > coarse["threshold"]
            assert coarse["checks"][kind] is False
        assert coarse["passed"] is False
        assert code == 1

    def test_errors_shrink_under_refinement(self, disk_run, tmp_path):
        _, coarse = disk_run
        code = run("validate-disk", "--ppw", "30", "--out", str(tmp_path))
        assert code == 0
        fine = json.loads((tmp_path / "validate_disk.json").read_text())
        for kind in formulations.FORMULATION_KINDS:
            assert fine["errors"][kind] < coarse["errors"][kind]

    def test_report_is_unchanged_without_cpu_affinity(self, disk_run, tmp_path, monkeypatch):
        # macOS has no os.sched_getaffinity; the field then runs on os.cpu_count()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert run("validate-disk", "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / "validate_disk.json").read_text()) == disk_run[1]


class TestExitCodes:
    def test_missing_scene_file(self, tmp_path, capsys):
        assert run("verify", "--scene", str(tmp_path / "nope.json")) == 2
        assert "error:" in capsys.readouterr().err

    def test_ppw_too_low(self, tmp_path):
        assert run("solve", "--preset", "desk", "--ppw", "3", "--out", str(tmp_path)) == 2

    def test_bad_solver_parameters(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run("solve", "--preset", "desk", "--restart", "0", "--out", out) == 2
        assert run("solve", "--preset", "desk", "--maxiter", "-1", "--out", out) == 2
        assert run("solve", "--preset", "desk", "--tol", "0", "--out", out) == 2
        # a relative residual of 1 is met before the first iteration
        assert run("solve", "--preset", "desk", "--tol", "1", "--out", out) == 2
        capsys.readouterr()
        assert run("verify", "--preset", "desk", "--tol", "2", "--out", out) == 2
        assert "tolerance must be in (0, 1)" in capsys.readouterr().err
        # CFIE's and BW's parameters are checked whichever formulation runs
        for formulation, flag, value, message in (
            ("EFIE", "--alpha", "1.5", "alpha strictly inside (0, 1)"),
            ("EFIE", "--eta-im", "0", "eta with nonzero imaginary part"),
            ("MFIE", "--eta-bw-im", "0", "eta_bw with nonzero imaginary part"),
            ("BW", "--alpha", "0", "alpha strictly inside (0, 1)"),
        ):
            assert run("solve", "--preset", "desk", "--formulation", formulation,
                       flag, value, "--out", out) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "solve.json").exists()
        assert run("validate-disk", "--eta-bw-im", "0", "--out", out) == 2
        assert "eta_bw with nonzero imaginary part" in capsys.readouterr().err

    def test_config_and_library_refuse_alike(self):
        scene = verify.desk_scene()
        for change, library_call in (
            ({"ppw": 3.9}, lambda: geometry.mesh_scene(scene, 3.9)),
            ({"tol": 1.0}, lambda: linalg.gmres(lambda v: v, np.ones(3), tol=1.0)),
            ({"restart": 0}, lambda: linalg.gmres(lambda v: v, np.ones(3), restart=0)),
            ({"disk_k": 0.0}, lambda: dataclasses.replace(scene, k=0.0).validate()),
        ):
            with pytest.raises(ValueError) as config_error:
                cli.RunConfig(**change).validate()
            with pytest.raises(ValueError) as library_error:
                library_call()
            assert str(config_error.value) == str(library_error.value), change

    def test_real_coupling_rejected(self, tmp_path):
        code = run("solve", "--preset", "desk", "--ppw", "4", "--eta-re", "2.0",
                   "--out", str(tmp_path))
        assert code == 2

    def test_invalid_scene_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert run("solve", "--scene", str(bad), "--out", str(tmp_path)) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("entry", ["ellipse", 3, None, ["ellipse"]])
    def test_obstacle_entry_that_is_not_an_object(self, entry, tmp_path, capsys):
        doc = cli.scene_to_dict(verify.desk_scene())
        doc["obstacles"][1] = entry
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(doc))
        assert run("verify", "--scene", str(scene_file), "--out", str(tmp_path)) == 2
        assert "error: obstacle 1 must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize("obstacles,message", [
        ([], "error: a scene needs at least one obstacle"),
        # two unit disks whose centers 0.8 apart pass a minimum distance of 0.5
        ([{"kind": "ellipse", "params": {"a": 1.0, "b": 1.0}, "center": [x, 0.0],
           "rotation": 0.0}
          for x in (0.0, 0.8)],
         "error: obstacles 0 and 1 may overlap: their circumscribed circles meet"),
    ], ids=["empty", "overlapping"])
    def test_scene_without_disjoint_obstacles_is_refused(
        self, command, obstacles, message, tmp_path, capsys
    ):
        doc = cli.scene_to_dict(verify.desk_scene())
        doc.update(obstacles=obstacles, min_center_distance=0.5)
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(doc))
        assert run(command, "--scene", str(scene_file), "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / f"{command}.json").exists()

    # desk at ppw 1e7 has about 1.5e8 unknowns, whose nodes alone would take
    # about 13 GB, and the unit disk 5e7
    @pytest.mark.parametrize("command,message", [
        ("verify", "GiB of physical memory"),
        ("spectrum", f"limited to {linalg.EIG_DIM_LIMIT} unknowns"),
        ("solve", "GiB of physical memory"),
        ("validate-disk", "GiB of physical memory"),
    ])
    def test_absurd_size_refused_before_meshing(
        self, command, message, tmp_path, monkeypatch, capsys
    ):
        fail_on_large_arrays(monkeypatch)
        assert run(command, "--ppw", "1e7", "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err

    def test_singular_system_maps_to_numeric_failure(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise linalg.SingularMatrixError("zero pivot")

        monkeypatch.setattr(cli, "disk_field_errors", boom)
        assert run("validate-disk", "--out", str(tmp_path)) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_internal_numeric_failure_maps_to_three(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise RuntimeError("QR iteration stalled")

        monkeypatch.setattr(cli, "disk_field_errors", boom)
        assert run("validate-disk", "--out", str(tmp_path)) == 3
        capsys.readouterr()

    def test_size_beyond_physical_memory_refused_before_allocating(
        self, tmp_path, monkeypatch, capsys
    ):
        numpy_zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            assert np.prod(shape) < 10**8, "a dense operator matrix was allocated"
            return numpy_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", small_zeros)
        assert run("verify", "--preset", "desk", "--ppw", "5000", "--out", str(tmp_path)) == 2
        assert "GiB of physical memory" in capsys.readouterr().err

    def test_out_of_memory_maps_to_input_error(self, tmp_path, monkeypatch, capsys):
        # a Krylov basis of 10^9 vectors cannot be allocated
        refuse_large_allocations(monkeypatch)
        code = run("solve", "--preset", "desk", "--ppw", "10", "--restart", "1000000000",
                   "--maxiter", "1000000000", "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_absurd_wavenumber_is_an_input_error(self, tmp_path, capsys):
        # the disk series needs Y_4(1e-100), which overflows a float
        assert run("validate-disk", "--k", "1e-100", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: Y_n overflows at order 4")

    # desk at the default ppw 15 has 223 unknowns, the unit disk 75
    @pytest.mark.parametrize("argv,command,unknowns", [
        (["verify", "--preset", "desk"], "verify", 223),
        (["spectrum", "--preset", "desk"], "spectrum", 223),
        (["solve", "--preset", "desk"], "solve CFIE", 223),
        (["solve", "--preset", "desk", "--formulation", "EFIE"], "solve EFIE", 223),
        (["validate-disk"], "validate-disk", 75),
    ], ids=["verify", "spectrum", "solve", "solve-EFIE", "validate-disk"])
    def test_command_beyond_available_memory_refused_before_assembly(
        self, argv, command, unknowns, tmp_path, monkeypatch, capsys
    ):
        needed = cli._BYTES_PER_ENTRY[command] * unknowns ** 2

        def no_assembly(*args, **kwargs):
            raise AssertionError("operators were assembled")

        monkeypatch.setattr(bem, "assemble_operators", no_assembly)
        monkeypatch.setattr(cli, "_available_memory", lambda: needed - 1)
        assert run(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command} on {unknowns} unknowns needs about 0.0 GiB, ")
        assert "GiB of physical memory available" in err
        # with the estimate available the command goes on to assembly
        monkeypatch.setattr(cli, "_available_memory", lambda: needed)
        with pytest.raises(AssertionError, match="operators were assembled"):
            run(*argv, "--out", str(tmp_path))

    def test_memory_reader_reports_available_within_physical(self):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert 0 < cli._available_memory() <= physical

    def test_spectrum_beyond_eigenvalue_limit_refused_before_assembly(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_assembly(*args, **kwargs):
            raise AssertionError("operators were assembled")

        monkeypatch.setattr(bem, "assemble_operators", no_assembly)
        assert run("spectrum", "--preset", "desk", "--ppw", "250", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"limited to {linalg.EIG_DIM_LIMIT} unknowns" in err

    def test_spectrum_eigenvalue_limit_reported_whatever_memory_is_free(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "_available_memory", lambda: 0)
        assert run("spectrum", "--preset", "desk", "--ppw", "250", "--out", str(tmp_path)) == 2
        assert f"limited to {linalg.EIG_DIM_LIMIT} unknowns" in capsys.readouterr().err

    def test_scene_and_preset_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("verify", "--scene", "x.json", "--preset", "desk")
        assert info.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 2

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("--help")
        assert info.value.code == 0
        assert "scene" in capsys.readouterr().out

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "command,flag",
        [(command, flag) for command, flags in FLOAT_FLAGS.items() for flag in flags],
    )
    def test_non_finite_flag_rejected(self, command, flag, value, tmp_path, capsys):
        assert run(command, f"{flag}={value}", "--out", str(tmp_path)) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("path", SCENE_NUMBERS, ids=lambda p: ".".join(map(str, p)))
    def test_non_finite_scene_number_rejected(self, path, value, tmp_path, capsys):
        doc = cli.scene_to_dict(verify.desk_scene())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = float(value)
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(doc))
        assert run("verify", "--scene", str(scene_file), "--out", str(tmp_path)) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("path", SCENE_NUMBERS, ids=lambda p: ".".join(map(str, p)))
    def test_boolean_scene_number_rejected(self, path, tmp_path, capsys):
        # json reads true as a bool, which Python would take for the number 1
        doc = cli.scene_to_dict(verify.desk_scene())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = True
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(doc))
        assert run("scene", "--scene", str(scene_file), "--out", str(tmp_path / "out")) == 2
        assert "error: scene numbers must not be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("path", SCENE_NUMBERS, ids=lambda p: ".".join(map(str, p)))
    def test_string_scene_number_rejected(self, path, tmp_path, capsys):
        # float("5") would read the string "5" as the number 5
        doc = cli.scene_to_dict(verify.desk_scene())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = str(target[path[-1]])
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(doc))
        assert run("scene", "--scene", str(scene_file), "--out", str(tmp_path / "out")) == 2
        assert "must be a number, got '" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # a scene file holds exactly the keys scene_to_dict writes, with no defaults
    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["obstacles"][0].update(params=[["a", 1.0], ["b", 0.6]]),
         "error: obstacle 0: params must be a JSON object"),
        (lambda doc: doc["obstacles"][0].update(params={}),
         "error: obstacle 0: params is missing keys ['a', 'b']"),
        (lambda doc: doc["obstacles"][0].pop("params"),
         "error: obstacle 0 is missing keys ['params']"),
        (lambda doc: doc["obstacles"][0].pop("center"),
         "error: obstacle 0 is missing keys ['center']"),
        (lambda doc: doc["obstacles"][0].pop("rotation"),
         "error: obstacle 0 is missing keys ['rotation']"),
        (lambda doc: doc.update(ppw=30), "error: scene document has unexpected keys ['ppw']"),
        (lambda doc: doc["obstacles"][1].update(color="red"),
         "error: obstacle 1 has unexpected keys ['color']"),
        (lambda doc: doc.update(schema_version=True),
         "error: scene numbers must not be true or false (schema_version)"),
    ], ids=["params-pairs", "params-empty", "no-params", "no-center", "no-rotation",
            "stray-key", "unknown-obstacle-key", "schema-version-true"])
    def test_malformed_scene_document_refused(self, edit, message, tmp_path, capsys):
        doc = cli.scene_to_dict(verify.desk_scene())
        edit(doc)
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(doc))
        assert run("scene", "--scene", str(scene_file), "--out", str(tmp_path / "out")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_direction_off_unit_length_by_rounding_is_one_rule(self, tmp_path, capsys):
        # every command reads k and beta from the scene and refuses them by
        # the scene's one rule, so a beta the scene file accepts solves too
        doc = cli.scene_to_dict(verify.desk_scene())
        doc["beta"] = [0.6, 0.8000000001]
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(doc))
        codes = [run(*argv, "--scene", str(scene_file), "--ppw", "4", "--out", str(tmp_path))
                 for argv in (("scene",), ("solve", "--formulation", "EFIE"))]
        assert codes == [0, 0], capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        ("p", 4.9, "error: obstacle 1: p must be a whole number, got 4.9"),
        ("seed", 2.7, "error: seed must be a whole number, got 2.7"),
    ])
    def test_fractional_integer_field_rejected(self, field, value, message, tmp_path, capsys):
        doc = cli.scene_to_dict(verify.desk_scene())
        (doc["obstacles"][1]["params"] if field == "p" else doc)[field] = value
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(doc))
        assert run("scene", "--scene", str(scene_file), "--out", str(tmp_path / "out")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_whole_float_reads_as_integer(self):
        doc = cli.scene_to_dict(verify.desk_scene())
        doc["obstacles"][1]["params"]["p"] = 8.0
        doc["seed"] = 2.0
        scene = cli.scene_from_dict(doc)
        assert scene.obstacles[1].p == 8 and isinstance(scene.obstacles[1].p, int)
        assert scene.seed == 2 and isinstance(scene.seed, int)


class TestDefaults:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_flags_give_run_config_defaults(self, command):
        args = cli.build_parser().parse_args([command])
        defaults = cli.RunConfig()
        exposed = [
            field.name for field in dataclasses.fields(cli.RunConfig)
            if field.name in vars(args)
        ]
        assert "ppw" in exposed and "out_dir" in exposed
        for name in exposed:
            assert getattr(args, name) in (None, getattr(defaults, name)), name
        assert cli._config_from_args(args) == defaults

    def test_python_dash_m_runs_the_cli(self):
        src = pathlib.Path(multiscat.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-m", "multiscat", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert "validate-disk" in result.stdout
