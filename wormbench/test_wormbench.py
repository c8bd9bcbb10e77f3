#!/usr/bin/env python3
"""Self-test of the benchmark: python3 wormbench/test_wormbench.py

Runs every workload run.py knows twice (once per mode, each call simulating
at least twice) and checks that the physics digests agree across all of
them, that each call reports correct, that the workloads BENCHMARK.json
lists fail no message, and that the metric names and units
printed match BENCHMARK.json. Also checks that metrics.json describes
exactly the per-layer metrics of BENCHMARK.json, each naming the end-to-end
metric and workloads it should move. Takes about a minute.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def load_json(path):
    with open(path) as f:
        return json.load(f)


def bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-3000:])
    lines = proc.stdout.strip().splitlines()
    digest = [l.split()[-1] for l in lines if l.startswith("# digest:")]
    return json.loads(lines[-1]), digest


class WormbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        cls.layers = load_json(os.path.join(HERE, "metrics.json"))["per_layer"]

    def test_workloads_known(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, [w for w in run.WORKLOADS if w in names])

    def test_end_to_end_names_match(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            run.END_TO_END)

    def test_per_layer_described(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
            [(m["name"], m["unit"], m["better"]) for m in self.layers])
        e2e = set(run.END_TO_END) | {"traced run only"}
        for m in self.layers:
            self.assertIn(m["moves"], e2e, m["name"])
            self.assertTrue(m["on"], m["name"])
            self.assertTrue(set(m["on"] + m["flat_on"]) <= set(run.WORKLOADS))

    def test_each_workload_twice(self):
        e2e_names = [m["name"] for m in self.spec["end_to_end"]]
        layer_names = [m["name"] for m in self.spec["per_layer"]]
        benchmarked = {w["name"] for w in self.spec["workloads"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                untraced, d0 = bench(workload, 0)
                traced, d1 = bench(workload, 1)
                for result in (untraced, traced):
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    # A benchmarked workload must not lose any operation.
                    if workload in benchmarked:
                        self.assertEqual(result["failed"], 0)
                self.assertEqual(list(untraced["metrics"]), e2e_names)
                self.assertEqual(list(traced["metrics"]), layer_names)
                self.assertEqual(len(d0), 1)
                self.assertEqual(d0, d1)
                for name, m in untraced["metrics"].items():
                    self.assertEqual(m["unit"], run.END_TO_END[name])
                    self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
