"""Fast self-test of the benchmark itself, at toy sizes (a few seconds).

    python3 bench/selftest.py

Checks that every workload runs clean at toy size, that a wrong reference
value is counted as a failed operation, that the self-time arithmetic is
right on a hand-built span tree, that tracing reports every per-layer
metric named in BENCHMARK.json and restores the library afterwards, and
that the command refuses to run without the library's sources.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

workloads = run.import_library()
import spans  # noqa: E402


def toy_pass(name, reference=None, tracer=None):
    ops = workloads.setup(name, 1, "toy", reference)
    return run.run_pass(ops, tracer)


class ToyWorkloads(unittest.TestCase):
    def test_every_workload_passes_its_oracles(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                failures, _ = toy_pass(name)
                self.assertEqual(failures, [])

    def test_outputs_are_deterministic(self):
        self.assertEqual(toy_pass("wide_circle")[1], toy_pass("wide_circle")[1])

    def test_wrong_census_reference_is_a_failure(self):
        bad = copy.deepcopy(workloads.load_reference())
        bad["census"]["3,1,1"]["pattern_matches"] += 1
        failures, _ = toy_pass("census", bad)
        self.assertEqual(len(failures), 1)
        self.assertIn("OracleFailure", failures[0])

    def test_wrong_index_reference_fails_every_dependent_operation(self):
        bad = copy.deepcopy(workloads.load_reference())
        bad["cp3_twisted_index"][0] += 1
        failures, _ = toy_pass("wide_circle", bad)
        # the index operation and the one circle checked against it
        self.assertEqual(len(failures), 2)

    def test_h_vector_oracle(self):
        from quasigenus import models
        self.assertEqual(workloads.h_vector_betti(models.sphere_product(3).polytope),
                         [1, 3, 3, 1])
        self.assertEqual(workloads.h_vector_betti(models.projective_space(4).polytope),
                         [1, 1, 1, 1, 1])


def span(name, start, end, parent):
    return spans.Span(name, start, end, parent, None)


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        tree = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, 0),
            span("a.child", 2.0, 3.0, 1),
            span("b", 5.0, 6.0, 0),
            span("b.sibling", 5.5, 7.0, 0),     # overlaps b: counted once
        ]
        self.assertEqual(spans.self_times(tree), [5, 2, 1, 1, 1.5])

    def test_child_outside_parent_is_clipped(self):
        tree = [span("root", 0.0, 2.0, None), span("late", 1.5, 3.0, 0)]
        self.assertEqual(spans.self_times(tree), [1.5, 1.5])

    def test_layer_metrics_sum_self_time_per_layer(self):
        tree = [
            span("genus.localization", 0.0, 4.0, None),
            span("exactalg.interpolate", 1.0, 2.0, 0),
            span("exactalg.interpolate", 2.5, 3.0, 0),
        ]
        got = spans.layer_metrics(tree, Counter())
        self.assertEqual(got["genus.localization_s"], 2.5)
        self.assertEqual(got["exactalg.interpolate_s"], 1.5)


class Tracing(unittest.TestCase):
    def test_traced_toy_census_reports_layers_and_restores(self):
        from quasigenus import cohomology, linalg
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            failures, _ = toy_pass("census", tracer=tracer)
        finally:
            uninstall()
        self.assertEqual(failures, [])
        self.assertEqual(tracer.absent, [])
        self.assertIs(cohomology.rref, linalg.rref)
        got = spans.layer_metrics(tracer.spans, tracer.counts)
        self.assertEqual(got["polytope.matrices"], 8)
        self.assertEqual(got["cohomology.shape_match_frac"], 1.0)
        self.assertGreater(got["linalg.rref_s"], 0)
        self.assertEqual(got["exactalg.interpolate_calls"], 0)

    def test_missing_target_is_reported_absent(self):
        spans.TARGETS.append(("quasigenus.genus", "no_such_function",
                              "genus.localization", None, None))
        try:
            tracer = spans.Tracer()
            spans.install(tracer)()
        finally:
            spans.TARGETS.pop()
        self.assertEqual(tracer.absent, ["quasigenus.genus.no_such_function"])


class Command(unittest.TestCase):
    def run_bench(self, cwd, *extra):
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "census",
             "--seed", "3", "--seconds", "1", "--size", "toy", *extra],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_result_line_carries_the_declared_metrics(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                got = self.run_bench(run.ROOT, "--trace", str(trace))
                self.assertEqual(got.returncode, 0, got.stderr)
                result = json.loads(got.stdout.splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in declared[key]})
                for m in declared[key]:
                    self.assertEqual(result["metrics"][m["name"]]["unit"],
                                     m["unit"])

    def test_refuses_to_run_without_the_library(self):
        bare = run.OUT_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, bare / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            got = self.run_bench(bare, "--trace", "0")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(got.returncode, 0)
        self.assertNotIn('"metrics"', got.stdout)


if __name__ == "__main__":
    unittest.main()
