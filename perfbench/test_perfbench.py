#!/usr/bin/env python3
"""Self-checks of the serving benchmark.

    python3 perfbench/test_perfbench.py

Builds hermes_perfbench like run.py does, then checks that
BENCHMARK.json is well formed, that every workload it names runs and
emits every metric it lists in both modes (short runs), and that a seed
reproduces the same inputs while another seed changes them.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SHORT_SECONDS = "2"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def binary():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return run.build(os.path.join(ROOT, target, "perfbench"))


def perfbench(*args):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    workdir = os.path.join(ROOT, target, "work")
    os.makedirs(workdir, exist_ok=True)
    return subprocess.run(
        [binary(), "--workdir", workdir, *args],
        capture_output=True, text=True, timeout=170)


class BenchmarkJson(unittest.TestCase):
    def test_shape_and_names(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertLessEqual(os.path.getsize(
            os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        self.assertTrue(1 <= len(spec["command"]) <= 32)
        for arg in spec["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg)
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, PATH)
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)

        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is reused")
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class EveryWorkloadEmitsEveryMetric(unittest.TestCase):
    def test_short_runs(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace, listed in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    done = perfbench("--workload", w["name"],
                                     "--seed", "3",
                                     "--seconds", SHORT_SECONDS,
                                     "--trace", trace)
                    self.assertEqual(done.returncode, 0,
                                     done.stdout[-2000:] + done.stderr)
                    result = json.loads(done.stdout.strip()
                                        .splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in
                         result["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec[listed]})
                    if trace == "0":
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


class SeedReproducesInputs(unittest.TestCase):
    def digest(self, workload, seed):
        done = perfbench("--workload", workload, "--seed", str(seed),
                         "--inputs-digest")
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])[
            "inputs_digest"]

    def test_digests(self):
        for w in load_spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                first = self.digest(w["name"], 11)
                self.assertEqual(first, self.digest(w["name"], 11))
                self.assertNotEqual(first, self.digest(w["name"], 12))


if __name__ == "__main__":
    unittest.main()
