"""Fast self-test of the benchmark harness.

    python3 perfbench/test_harness.py

Checks the self-time arithmetic on a hand-built span tree, that the tracer
puts back every module attribute it wrapped, and that every metric name in
BENCHMARK.json is well formed and is what the harness prints.
"""

import json
import pathlib
import re
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tree():
    # op 1:  verify.check_direct_equality [0, 10]
    #          linalg.lu_factor [1, 4]
    #          formulations.build_system [5, 9]
    #            bem.assemble_operators [6, 7]
    # op 2:  linalg.inf_norm [20, 22]   (not selected below)
    return [
        Span("verify.check_direct_equality", 0.0, 10.0, -1, 1),
        Span("linalg.lu_factor", 1.0, 4.0, 0, 1, {"flops": 6.0}),
        Span("formulations.build_system", 5.0, 9.0, 0, 1),
        Span("bem.assemble_operators", 6.0, 7.0, 2, 1, {"entries": 50, "unknowns": 5}),
        Span("linalg.inf_norm", 20.0, 22.0, -1, 2),
    ]


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(tracing.self_times(_tree()), [3.0, 3.0, 3.0, 1.0, 2.0])

    def test_layer_metrics_sum_self_times_per_module(self):
        m = tracing.layer_metrics(_tree(), [1], op_seconds=10.0)
        self.assertEqual(m["verify.self_s"], 3.0)
        self.assertEqual(m["verify.direct_s"], 10.0)
        self.assertEqual(m["linalg.self_s"], 3.0)
        self.assertEqual(m["linalg.lu_factor_s"], 3.0)
        self.assertEqual(m["linalg.lu_factor_flops"], 6.0)
        self.assertEqual(m["linalg.other_s"], 0.0)
        self.assertEqual(m["formulations.self_s"], 3.0)
        self.assertEqual(m["bem.assemble_self_s"], 1.0)
        self.assertEqual(m["bem.entries_per_s"], 50.0)
        self.assertAlmostEqual(m["linalg.share"], 0.3)
        self.assertAlmostEqual(m["trace.unattributed_share"], 0.0)

    def test_layer_metrics_are_per_operation(self):
        spans = _tree() + [Span("linalg.inf_norm", 30.0, 34.0, -1, 3)]
        m = tracing.layer_metrics(spans, [2, 3], op_seconds=3.0)
        self.assertEqual(m["linalg.other_s"], 3.0)
        self.assertEqual(m["trace.spans"], 1.0)


class Wrappers(unittest.TestCase):
    def test_restore_puts_back_every_original(self):
        from multiscat import linalg

        modules = tracing.traced_modules()
        self.assertEqual(sorted(modules), sorted(tracing.MODULES))
        before = {name: dict(vars(mod)) for name, mod in modules.items()}
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(linalg.inf_norm, before["linalg"]["inf_norm"])
            self.assertEqual(linalg.inf_norm([[1.0, -2.0], [0.5, 0.5]]), 3.0)
            with self.assertRaises(ValueError):
                linalg.inf_norm([1.0, 2.0])
        finally:
            tracer.restore()
        self.assertEqual([s.name for s in tracer.spans], ["linalg.inf_norm"] * 2)
        self.assertEqual(tracer._stack, [])
        for name, mod in modules.items():
            after = vars(mod)
            self.assertEqual(after.keys(), before[name].keys())
            for attr, value in before[name].items():
                self.assertIs(after[attr], value, f"{name}.{attr} not restored")


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_per_layer_metrics_are_what_a_traced_run_prints(self):
        printed = list(tracing.layer_metrics([], [1], 1.0)) + ["trace.overhead"]
        listed = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(sorted(printed), sorted(listed))
        for name in printed:
            self.assertEqual(tracing.unit_of(name), listed[name], name)

    def test_end_to_end_metrics_are_what_an_untraced_run_prints(self):
        listed = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(listed, run.END_TO_END_UNITS)

    def test_workloads_match_the_harness(self):
        from workloads import WORKLOADS

        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(WORKLOADS))
        self.assertEqual(names, list(run.WORKLOAD_NAMES))


if __name__ == "__main__":
    unittest.main()
