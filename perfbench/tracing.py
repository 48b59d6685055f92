"""Spans around the public functions of the multiscat modules, and the
per-module metrics computed from them.

The tracer replaces every public function of each traced module with a
wrapper, as a module attribute.  The modules call each other through module
attributes (``specfun.bessel_j0j1y0y1`` from ``bem``, ``linalg.lu_solve``
from ``formulations``), so the wrappers see the cross-module calls without
any change to the program.  Each span records its name, start, end, parent
span and operation id; spans stay in memory until the run ends.

Self time is a span's duration minus the time its child spans cover.  The
program is single-threaded, so children never overlap and the covered time
is the sum of their durations.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import resource
import time

import numpy as np

MODULES = ("specfun", "geometry", "bem", "linalg", "analytic", "formulations", "verify", "cli")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    counts: dict | None = None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Count hooks: what a call did, from its bound arguments (defaults applied)
# and its result.
def _bessel_counts(call, result):
    return {"points": int(np.size(call["x"]))}


def _assemble_counts(call, result):
    return {"entries": sum(op.n * op.n for op in result.values()),
            "unknowns": max((op.n for op in result.values()), default=0)}


def _field_counts(call, result):
    mesh = call["mesh"]
    panels = mesh.n_nodes if hasattr(mesh, "block_offsets") else mesh.segments.shape[0]
    return {"points": int(result.values.size) * panels * call["order"]}


def _lu_counts(call, result):
    return {"flops": 8.0 / 3.0 * result.n ** 3}


def _gmres_counts(call, result):
    report = result[1]
    return {"iterations": report.iterations, "unconverged": int(not report.converged)}


def _system_key(system):
    # the mesh object stays referenced by the span, so its id is not reused
    return {"key": (system.formulation, id(system.mesh)), "mesh": system.mesh}


def _build_counts(call, result):
    return _system_key(result)


def _system_arg_counts(call, result):
    return _system_key(call["system"])


def _mie_counts(call, result):
    return {"points": int(result.size)}


HOOKS = {
    "specfun.bessel_j0j1y0y1": _bessel_counts,
    "bem.assemble_operators": _assemble_counts,
    "bem.evaluate_potentials": _field_counts,
    "linalg.lu_factor": _lu_counts,
    "linalg.gmres": _gmres_counts,
    "formulations.build_system": _build_counts,
    "formulations.single_scattering_preconditioner": _system_arg_counts,
    "formulations.preconditioned_matrix": _system_arg_counts,
    "analytic.mie_scattered": _mie_counts,
}


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def traced_modules() -> dict:
    return {name: importlib.import_module(f"multiscat.{name}") for name in MODULES}


class Tracer:
    """Wraps module functions with span recorders; ``restore`` undoes it."""

    def __init__(self):
        self.modules = traced_modules()
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        # ru_maxrss before and after each top-level bem span, in MiB
        self.bem_rss: list[tuple[int, float, float]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, module in self.modules.items():
            for attr, fn in public_functions(module).items():
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{modname}.{attr}", fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        watch_rss = name.startswith("bem.")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            rss_before = _rss_mib() if watch_rss else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if watch_rss and (span.parent < 0 or spans[span.parent].module != "bem"):
                self.bem_rss.append((span.op, rss_before, _rss_mib()))
            if hook is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                span.counts = hook(call.arguments, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], ops: list[int], op_seconds: float,
                  bem_rss=(), extra: dict | None = None) -> dict:
    """Per-module metrics, per operation, over the spans of operations ``ops``.

    ``op_seconds`` is the mean traced operation wall time, the base of every
    ``.share``.  ``extra`` supplies values the spans cannot: the problem size
    and report bytes of an operation, and the check values it produced.
    Times are self times unless the name says otherwise.
    """
    extra = extra or {}
    chosen = set(ops)
    n_ops = max(1, len(chosen))
    self_all = self_times(spans)
    picked = [i for i, s in enumerate(spans) if s.op in chosen]

    def total_self(pred) -> float:
        return sum(self_all[i] for i in picked if pred(spans[i])) / n_ops

    def inclusive(name: str) -> float:
        return sum(spans[i].duration for i in picked
                   if spans[i].name == name and not _has_ancestor(spans, i, name)) / n_ops

    def calls(name: str) -> float:
        return sum(1 for i in picked if spans[i].name == name) / n_ops

    def count(name: str, key: str) -> float:
        return sum(spans[i].counts[key] for i in picked
                   if spans[i].name == name and spans[i].counts) / n_ops

    def distinct(name: str) -> float:
        keys = {(spans[i].op, spans[i].counts["key"]) for i in picked
                if spans[i].name == name and spans[i].counts}
        return len(keys) / n_ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    module_self = {mod: total_self(lambda s, mod=mod: s.module == mod) for mod in MODULES}

    bessel_points = count("specfun.bessel_j0j1y0y1", "points")
    m["specfun.self_s"] = module_self["specfun"]
    m["specfun.bessel_points"] = bessel_points
    m["specfun.ns_per_point"] = 1e9 * ratio(
        total_self(lambda s: s.name == "specfun.bessel_j0j1y0y1"), bessel_points)

    entries = count("bem.assemble_operators", "entries")
    assemble_inclusive = inclusive("bem.assemble_operators")
    field_self = total_self(lambda s: s.name == "bem.evaluate_potentials")
    field_specfun = sum(
        self_all[i] for i in picked
        if spans[i].module == "specfun" and _has_ancestor(spans, i, "bem.evaluate_potentials")
    ) / n_ops
    rss_deltas = [after - before for op, before, after in bem_rss if op in chosen]
    m["bem.assemble_calls"] = calls("bem.assemble_operators")
    m["bem.assemble_self_s"] = module_self["bem"] - field_self
    m["bem.assembled_entries"] = entries
    m["bem.entries_per_s"] = ratio(entries, assemble_inclusive)
    m["bem.field_calls"] = calls("bem.evaluate_potentials")
    m["bem.field_points"] = count("bem.evaluate_potentials", "points")
    m["bem.field_self_s"] = field_self
    m["bem.field_specfun_s"] = field_specfun
    m["bem.rss_hwm_delta_mb"] = max(rss_deltas, default=0.0)

    m["geometry.self_s"] = module_self["geometry"]
    m["geometry.unknowns"] = float(extra.get("unknowns", 0))

    linalg_named = ("linalg.lu_factor", "linalg.lu_solve", "linalg.gmres", "linalg.eigenvalues")
    gmres_self = total_self(lambda s: s.name == "linalg.gmres")
    gmres_iterations = count("linalg.gmres", "iterations")
    m["linalg.self_s"] = module_self["linalg"]
    m["linalg.lu_factor_calls"] = calls("linalg.lu_factor")
    m["linalg.lu_factor_s"] = total_self(lambda s: s.name == "linalg.lu_factor")
    m["linalg.lu_factor_flops"] = count("linalg.lu_factor", "flops")
    m["linalg.lu_solve_calls"] = calls("linalg.lu_solve")
    m["linalg.lu_solve_s"] = total_self(lambda s: s.name == "linalg.lu_solve")
    m["linalg.gmres_calls"] = calls("linalg.gmres")
    m["linalg.gmres_iterations"] = gmres_iterations
    m["linalg.gmres_s"] = gmres_self
    m["linalg.gmres_ms_per_iter"] = 1e3 * ratio(gmres_self, gmres_iterations)
    m["linalg.gmres_unconverged"] = count("linalg.gmres", "unconverged")
    m["linalg.eig_calls"] = calls("linalg.eigenvalues")
    m["linalg.eig_s"] = total_self(lambda s: s.name == "linalg.eigenvalues")
    m["linalg.other_s"] = total_self(lambda s: s.module == "linalg" and s.name not in linalg_named)

    m["formulations.self_s"] = module_self["formulations"]
    for short, name in (("build", "formulations.build_system"),
                        ("precond", "formulations.single_scattering_preconditioner"),
                        ("precmat", "formulations.preconditioned_matrix")):
        n_calls, n_distinct = calls(name), distinct(name)
        m[f"formulations.{short}_calls"] = n_calls
        m[f"formulations.{short}_distinct"] = n_distinct
        m[f"formulations.{short}_useful_ratio"] = ratio(n_distinct, n_calls)

    m["verify.direct_s"] = inclusive("verify.check_direct_equality")
    m["verify.similarity_s"] = inclusive("verify.check_bw_similarity")
    m["verify.spectra_s"] = inclusive("verify.check_spectra")
    m["verify.histories_s"] = inclusive("verify.convergence_histories")
    m["verify.self_s"] = module_self["verify"]
    for key in ("direct_diff_max", "similarity_diff", "spectrum_err"):
        m[f"verify.{key}"] = float(extra.get(key, 0.0))

    m["analytic.mie_calls"] = calls("analytic.mie_scattered")
    m["analytic.mie_points"] = count("analytic.mie_scattered", "points")
    m["analytic.self_s"] = module_self["analytic"]
    m["analytic.disk_err_max"] = float(extra.get("disk_err_max", 0.0))

    m["cli.self_s"] = module_self["cli"]
    m["cli.report_bytes"] = float(extra.get("report_bytes", 0))

    for mod in MODULES:
        m[f"{mod}.share"] = ratio(module_self[mod], op_seconds)
    m["bem.field_share"] = ratio(field_self + field_specfun, op_seconds)
    m["trace.op_s"] = op_seconds
    m["trace.spans"] = len(picked) / n_ops
    m["trace.unattributed_share"] = ratio(op_seconds - sum(module_self.values()), op_seconds)
    return m


def assembly_rate(spans: list[Span]) -> tuple[float, int]:
    """Entries per second over every assembly in ``spans`` (set-up included),
    with the largest unknown count assembled, for the paper-scale figure."""
    entries, seconds, largest = 0, 0.0, 0
    for i, s in enumerate(spans):
        if s.name == "bem.assemble_operators" and not _has_ancestor(spans, i, s.name):
            entries += s.counts["entries"]
            seconds += s.duration
            largest = max(largest, s.counts["unknowns"])
    return (entries / seconds if seconds else 0.0), largest


def unit_of(name: str) -> str:
    """Unit of a per-module metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("ms_per_iter"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("share", "ratio", "overhead", "_err", "_diff", "_diff_max", "_err_max")):
        return "ratio"
    return "count"
