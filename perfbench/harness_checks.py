"""Self-tests of the benchmark harness (not part of the repository's test suite).

    python3 perfbench/harness_checks.py          # or: python3 -m pytest perfbench/harness_checks.py
"""
from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import program  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9] with overlapping
        # children b1 [5,7] and b2 [6,8]
        start = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0]
        end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
        parent = [-1, 0, 1, 0, 3, 3]
        got = list(metrics.self_times(start, end, parent))
        self.assertEqual(got, [3.0, 2.0, 1.0, 1.0, 2.0, 2.0])

    def test_child_outside_parent_is_clipped(self):
        got = list(metrics.self_times([0.0, 1.0], [2.0, 5.0], [-1, 0]))
        self.assertEqual(got[0], 1.0)

    def test_tracer_spans(self):
        tracer = tracing.Tracer()

        def inner():
            return 0

        def outer():
            inner_w()
            return list(gen_w())

        def gen():
            yield from range(3)

        inner_w = tracer.wrap("m.inner", inner)
        gen_w = tracer.wrap("m.gen", gen)
        outer_w = tracer.wrap("m.outer", outer)
        tracer.op_id = 7
        self.assertEqual(outer_w(), [0, 1, 2])
        names = [tracer.names[i] for i in tracer.name]
        self.assertEqual(names, ["m.outer", "m.inner", "m.gen"] + ["m.gen.next"] * 4)
        self.assertEqual(list(tracer.parent), [-1, 0, 0, 0, 0, 0, 0])
        self.assertEqual(set(tracer.op), {7})
        self_s = metrics.self_times(tracer.start, tracer.end, tracer.parent)
        self.assertTrue(all(s >= 0 for s in self_s))


class Percentiles(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.tail_percentile(values, 0.90), (90, 0.90))
        # p99 of 100 samples would leave one beyond: lowered to the 90th
        self.assertEqual(metrics.tail_percentile(values, 0.99), (90, 0.90))
        values = list(range(1, 2001))
        self.assertEqual(metrics.tail_percentile(values, 0.99), (1980, 0.99))

    def test_never_below_median(self):
        self.assertEqual(metrics.tail_percentile(list(range(1, 13)), 0.99), (6, 0.5))

    def test_op_latency_is_its_least_time(self):
        # op 0: a pause in one run; op 1: fails in one run; op 2 stands for 4 ops
        runs = [[1.0, 2.0, 8.0], [9.0, None, 12.0], [1.5, 2.5, 10.0]]
        got = metrics.op_latencies(runs, [1, 1, 4])
        self.assertEqual(got, [1.0, 2.0, 2.0, 2.0, 2.0, float("inf")])

    def test_failed_ops_sort_last(self):
        values = metrics.weighted_sorted([(2.0, 1), (None, 1), (1.0, 2)])
        self.assertEqual(values[:3], [1.0, 1.0, 2.0])
        self.assertEqual(values[3], float("inf"))
        self.assertEqual(metrics.median(values), 1.0)


class Generators(unittest.TestCase):
    def test_same_seed_same_pass(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.build_pass(name, 3), workloads.build_pass(name, 3))
                self.assertNotEqual(workloads.build_pass(name, 3), workloads.build_pass(name, 4))

    def test_run_orders(self):
        for name in workloads.WORKLOADS:
            size = len(workloads.build_pass(name, 3))
            orders = [workloads.run_order(name, 3, index, size) for index in range(3)]
            for order in orders:
                self.assertEqual(order[0], 0)
                self.assertEqual(sorted(order), list(range(size)))
            self.assertEqual(orders[1], workloads.run_order(name, 3, 1, size))
            self.assertNotEqual(orders[1], orders[2])

    def test_passes_draw_from_the_golden_universe(self):
        golden = workloads.Golden()
        for name in workloads.WORKLOADS:
            for seed in range(3):
                for op in workloads.build_pass(name, seed):
                    self.assertIsNotNone(golden.expected(op), op.key)

    def test_lr_pass_size_and_failures(self):
        ops = workloads.build_pass("lr", 5)
        self.assertGreaterEqual(len(ops), 100)
        golden = workloads.Golden()
        escaped = [op for op in ops if golden.expected(op)[2] is not None]
        self.assertEqual(len(escaped), 1)

    def test_queries_share_of_built_to_fail_inputs(self):
        ops = workloads.build_pass("queries", 5)
        invalid = [op for op in ops if op.expect and op.expect[0] == 1]
        self.assertAlmostEqual(len(invalid) / len(ops), 0.05, delta=0.005)


class GoldenChecks(unittest.TestCase):
    def test_escaped_op_that_now_returns_leaves_the_run_correct(self):
        # a fix for the deep lr product (RecursionError at the seed commit)
        # makes it unverified, not failed, and keeps the seed-0 pass digest
        golden = workloads.Golden()
        ops = workloads.build_pass("lr", workloads.DEFAULT_SEED)
        outcomes = []
        for op in ops:
            exit_code, kind, exception, digest = golden.expected(op)
            if exception is not None:
                outcomes.append(program.Outcome(0.001, 0, None, None, "fixed"))
            else:
                outcomes.append(program.Outcome(0.001, exit_code, kind, None, digest))
        statuses = worker.check(ops, outcomes, golden)
        self.assertEqual(statuses.count("unverified"), 1)
        tally = worker.Tally()
        tally.add(ops, outcomes, statuses)
        self.assertEqual((tally.failed, tally.mismatched), (0, set()))
        self.assertEqual(
            workloads.pass_digest(ops, [o.record() for o in outcomes], golden),
            golden.digest("lr", workloads.DEFAULT_SEED),
        )

    def test_pass_digest_ignores_order(self):
        golden = workloads.Golden()
        ops = workloads.build_pass("queries", workloads.DEFAULT_SEED)
        order = workloads.run_order("queries", workloads.DEFAULT_SEED, 4, len(ops))
        reordered = [ops[i] for i in order]
        self.assertEqual(
            workloads.pass_digest(reordered, [golden.expected(op) for op in reordered], golden),
            golden.digest("queries", workloads.DEFAULT_SEED),
        )

    def test_changed_output_is_a_failed_op(self):
        golden = workloads.Golden()
        ops = workloads.build_pass("queries", workloads.DEFAULT_SEED)[:1]
        exit_code, kind, _, _ = golden.expected(ops[0])
        statuses = worker.check(ops, [program.Outcome(0.001, exit_code, kind, None, "other")], golden)
        self.assertEqual(statuses, ["mismatch"])


class TinyRuns(unittest.TestCase):
    def run_bench(self, *args):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), *args],
            capture_output=True, text=True, timeout=600,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_each_workload_names_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = self.run_bench("--workload", name, "--seed", "1", "--seconds", "0")
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))

    def test_traced_counts_repeat(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        runs = [self.run_bench("--workload", "queries", "--seed", "2", "--trace", "1") for _ in range(2)]
        self.assertEqual(set(runs[0]["metrics"]), {m["name"] for m in spec["per_layer"]})
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "count/op", "ratio")}
            for r in runs
        ]
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
