"""Benchmark of the multiscat pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
NAME is one of desk-cli, desk30-checks, disk-field (BENCHMARK.json says why
each was chosen).  The seed fixes the inputs: the desk scene's placement,
or the disk's incidence direction.

With ``--trace 0`` the run sets up several times (the median is
``setup_s``), then repeats the workload's operation until S seconds have
passed and reports the median operation time, the program's passing
verdicts per operation and the peak RSS.  With ``--trace 1`` it sets up
once, then alternates traced and untraced operations and reports the
per-module metrics of the traced ones, the tracing overhead, and an
extrapolated paper-scale figure.

Every operation is checked: reports exist and parse, every number is
finite, the unknown count is the expected one, and every report's sha256
equals that of the run's first operation.  The last line of standard output
is one JSON object; details, the environment and the spans go to
``.bench_out/`` and to the lines before it.
"""

import os
import sys

import argparse
import json
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_PROBES = 5
PAPER_UNKNOWNS = 8959
# Matrices cmd_verify holds at once: L, M, N and three system copies and
# three preconditioned matrices (complex, 16 B per entry), plus the real
# mass matrix (8 B per entry).
VERIFY_BYTES_PER_ENTRY = 9 * 16 + 8
WORKLOAD_NAMES = ("desk-cli", "desk30-checks", "disk-field")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "checks_passed": "count"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports multiscat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import multiscat"], cwd=ROOT, env=env,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def run_operation(op, state, workdir: pathlib.Path):
    """One operation in a fresh directory; an exception fails it."""
    from workloads import Outcome

    workdir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        outcome = op(state, workdir)
    except Exception as exc:  # the benchmark must report a failed operation and go on
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(stages={"op_s": time.perf_counter() - start},
                          problems=[f"raised {type(exc).__name__}: {exc}"])
    shutil.rmtree(workdir)
    return outcome


def check_hashes(outcomes) -> None:
    """Every report of every operation must match the first operation's."""
    reference = outcomes[0].hashes
    for outcome in outcomes[1:]:
        if outcome.hashes != reference:
            changed = sorted(k for k in reference.keys() | outcome.hashes.keys()
                             if reference.get(k) != outcome.hashes.get(k))
            outcome.problems.append(f"report sha256 differs from the first operation: {changed}")


def stage_medians(outcomes) -> dict:
    names = dict.fromkeys(name for o in outcomes for name in o.stages)
    return {name: statistics.median([o.stages[name] for o in outcomes if name in o.stages])
            for name in names}


def untraced_run(args, setup, op, workroot):
    imports = [import_seconds() for _ in range(IMPORT_PROBES)]
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous state before building the next
        start = time.perf_counter()
        state = setup(args.seed)
        setups.append(time.perf_counter() - start)

    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < args.seconds:
        outcomes.append(run_operation(op, state, workroot / f"op{len(outcomes)}"))
    check_hashes(outcomes)

    good = [o for o in outcomes if not o.problems] or outcomes
    op_times = [o.seconds for o in good]
    values = {
        "op_s": statistics.median(op_times),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks_passed": float(statistics.median([o.checks_passed for o in good])),
    }
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    first = good[0]
    detail = {
        "operations": len(outcomes),
        "op_s_all": op_times,
        "op_s_min": min(op_times),
        "op_s_max": max(op_times),
        "stages_median_s": stage_medians(good),
        "import_s": imports,
        "workload_setup_s": setups,
        "checks_failed": float(statistics.median([o.checks_failed for o in good])),
        "unknowns": first.unknowns,
        "values": first.values,
        "report_sha256": first.hashes,
    }
    return outcomes, metrics, detail


def traced_run(args, setup, op, workroot):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = setup(args.seed)
    finally:
        tracer.restore()

    # Traced and untraced operations alternate, traced first: the first
    # traced operation then shows the growth of the RSS high-water mark.
    outcomes, traced_ids = [], []
    start = time.perf_counter()
    while len(outcomes) < 2 or time.perf_counter() - start < args.seconds:
        index = len(outcomes)
        if index % 2 == 0:
            tracer.op = index + 1  # op id 0 is the set-up
            traced_ids.append(tracer.op)
            tracer.install()
            try:
                outcome = run_operation(op, state, workroot / f"op{index}")
            finally:
                tracer.restore()
        else:
            outcome = run_operation(op, state, workroot / f"op{index}")
        outcomes.append(outcome)
    check_hashes(outcomes)

    traced = outcomes[0::2]
    untraced = outcomes[1::2]
    traced_mean = sum(o.seconds for o in traced) / len(traced)
    first = traced[0]
    extra = {"unknowns": first.unknowns, "report_bytes": first.report_bytes, **first.values}
    layer = tracing.layer_metrics(tracer.spans, traced_ids, traced_mean, tracer.bem_rss, extra)
    layer["trace.overhead"] = (statistics.median([o.seconds for o in traced])
                               / statistics.median([o.seconds for o in untraced]) - 1.0)
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}

    rate, base_n = tracing.assembly_rate(tracer.spans)
    paper_entries = 3 * PAPER_UNKNOWNS ** 2
    detail = {
        "operations": len(outcomes),
        "traced_op_s": [o.seconds for o in traced],
        "untraced_op_s": [o.seconds for o in untraced],
        "extrapolated_paper_scale": {
            "label": "extrapolated, not measured",
            "unknowns": PAPER_UNKNOWNS,
            "assembly_entries": paper_entries,
            "assembly_s": paper_entries / rate if rate else None,
            "from_entries_per_s": rate,
            "from_unknowns": base_n,
            "verify_matrix_bytes": VERIFY_BYTES_PER_ENTRY * PAPER_UNKNOWNS ** 2,
            "verify_matrices": "L, M, N, 3 systems, 3 preconditioned (complex); mass (real)",
        },
    }
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(
        [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans]))
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return outcomes, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multiscat" / "__init__.py").is_file():
        print(f"error: no multiscat package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # One BLAS thread, fixed before numpy loads.  At these sizes (at most 444
    # unknowns) two OpenBLAS threads on two cores made the theorem checks 2.5x
    # slower and far noisier than one; one thread also fixes the reduction order.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    setup, op = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workroot = OUT / f"work-{os.getpid()}"
    try:
        runner = traced_run if args.trace else untraced_run
        outcomes, metrics, detail = runner(args, setup, op, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    failed = [o for o in outcomes if o.problems]
    for index, outcome in enumerate(outcomes):
        for problem in outcome.problems:
            print(f"operation {index} failed: {problem}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "detail": detail, **result}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for name, value in detail.get("stages_median_s", {}).items():
        print(f"{name}: {value:.6g} s (median stage time)")
    paper = detail.get("extrapolated_paper_scale")
    if paper and paper["assembly_s"]:
        print(f"paper scale ({PAPER_UNKNOWNS} unknowns), extrapolated: assembly "
              f"{paper['assembly_s']:.0f} s at {paper['from_entries_per_s']:.0f} entries/s "
              f"measured at {paper['from_unknowns']} unknowns; verify matrices "
              f"{paper['verify_matrix_bytes'] / 1e9:.1f} GB (computed)")
    print("detail: " + json.dumps(detail))
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
