#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/test_bench.py

Run it from the repository root. It checks that the same seed generates
byte-identical inputs and another seed different ones, and that a
one-second run of every workload, untraced and traced, verifies its
outputs, fails no call and emits exactly the metrics BENCHMARK.json
lists, each under a well-formed name.
"""

import json
import os
import re
import subprocess
import sys
import unittest

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, seed=3):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def digest(workload, seed):
    return subprocess.run(
        [EXE, "inputs", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


class Bench(unittest.TestCase):
    def test_inputs_follow_the_seed(self):
        run(WORKLOADS[0], 0)  # builds the executable
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(digest(w, 7), digest(w, 7))
                self.assertNotEqual(digest(w, 7), digest(w, 8))

    def test_tiny_runs(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            listed = {m["name"]: m["unit"] for m in BENCH[section]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    r = run(w, trace)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    for name, m in r["metrics"].items():
                        self.assertRegex(name, NAME)
                        self.assertEqual(listed.get(name), m["unit"], name)
                    self.assertEqual(set(r["metrics"]), set(listed))
                    if trace == 0:
                        self.assertEqual(
                            r["metrics"]["ok_op_ratio"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
