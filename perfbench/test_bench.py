#!/usr/bin/env python3
"""Self-tests of the Fig 6 benchmark's output contract and failure accounting.

    python3 perfbench/test_bench.py

Builds the benchmark the way run.py does, then checks that:
  * ops that fail are counted as attempted and failed, never dropped: a
    short privilege_matrix run with a kernel::FaultInjectSyscalls layer
    passed through the public `syscall_layers` option on a seeded subset of
    ops (--fault-every) reports exactly those ops as failed;
  * every end-to-end and per-layer metric named in BENCHMARK.json still
    prints, with a finite value and its unit, when ops fail;
  * a run without faults is correct and measures the fixed op budget
    (--seconds times the workload's nominal rate), however long it takes;
  * bad arguments exit nonzero without printing a result.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402

with open(os.path.join(bench_run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
BINARY = None


def invoke(*args):
    return subprocess.run([BINARY] + list(args), capture_output=True,
                          text=True, timeout=170)


def parse(proc):
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


class OutputContract(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        units = {m["name"]: m["unit"] for m in wanted}
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_faulted_ops_are_counted_as_failed(self):
        proc = invoke("--workload", "privilege_matrix", "--seed", "5",
                      "--seconds", "0.2", "--trace", "0",
                      "--fault-every", "4")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        report, result = parse(proc)
        prov = report["provenance"]
        self.assertGreater(report["faulted_ops"], 0)
        self.assertEqual(result["failed"], report["faulted_ops"])
        self.assertEqual(result["attempted"], prov["ops"] + prov["warmup_ops"])
        self.assertFalse(result["correct"])
        self.assertAlmostEqual(report["end_to_end"]["fail_frac"]["value"],
                               result["failed"] / result["attempted"])
        self.check_metrics(result, BENCHMARK["end_to_end"])

    def test_traced_run_prints_every_layer_metric_when_ops_fail(self):
        proc = invoke("--workload", "privilege_matrix", "--seed", "6",
                      "--seconds", "0.2", "--trace", "1",
                      "--fault-every", "4")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        report, result = parse(proc)
        self.assertGreater(report["faulted_ops"], 0)
        self.assertEqual(result["failed"], report["faulted_ops"])
        self.assertFalse(result["correct"])
        self.check_metrics(result, BENCHMARK["per_layer"])

    def test_run_without_faults_is_correct(self):
        proc = invoke("--workload", "privilege_matrix", "--seed", "7",
                      "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        report, result = parse(proc)
        self.assertTrue(result["correct"], report["errors"])
        self.assertEqual(report["provenance"]["ops"], 300)
        self.assertEqual(report["samples"]["op_ms"], 300)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(report["faulted_ops"], 0)

    def test_bad_arguments_print_no_result(self):
        for args in (["--workload", "nope", "--seed", "1"],
                     ["--workload", "privilege_matrix", "--seed", "x"],
                     ["--workload", "privilege_matrix", "--bogus", "1"]):
            proc = invoke(*args)
            self.assertNotEqual(proc.returncode, 0, args)
            self.assertEqual(proc.stdout, "", args)


if __name__ == "__main__":
    BINARY = bench_run.build()
    unittest.main()
