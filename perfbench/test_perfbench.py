#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They check that BENCHMARK.json and perfbench/catalog.json are well formed
and agree, and that a reduced-size run of every workload replays every
simulated end-to-end value exactly on a second run with the same seed while
passing every correctness gate, the traced-vs-untraced hash check included.
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark driver, imported for its helpers)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Values a run computes from the simulation alone: they must repeat exactly.
SIMULATED = ("sim_", "speedup_", "malloc_", "free_", "workload.failed_ops_share")


def load(name):
    with open(run.ROOT / name) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.bench = load("BENCHMARK.json")
        self.catalog = load("perfbench/catalog.json")

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})
        self.assertIsInstance(self.bench["run_seconds"], int)
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_names_and_units(self):
        names = []
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"], w["name"])
            names.append(w["name"])
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            names.append(m["name"])
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_catalog_agrees(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(self.catalog["workloads"]))
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        self.assertEqual(e2e, set(self.catalog["end_to_end"]))
        self.assertEqual({m["name"] for m in self.bench["per_layer"]},
                         set(self.catalog["per_layer"]))
        for name, entry in self.catalog["per_layer"].items():
            for target in entry["moves"]:
                self.assertIn(target, e2e | {"host_s"}, name)
            for w in entry["on"]:
                self.assertIn(w, self.catalog["workloads"], name)


class ReducedReplayTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.bench = load("BENCHMARK.json")

    def test_simulated_values_replay_exactly(self):
        for w in [w["name"] for w in self.bench["workloads"]]:
            with self.subTest(workload=w):
                first, layers = run.measure(self.binary, w, 5, 0.01, trace=True, reduced=True)
                second, _ = run.measure(self.binary, w, 5, 0.01, trace=False, reduced=True)
                simulated = [k for k in first["metrics"] if k.startswith(SIMULATED)]
                self.assertIn("sim_wall_cycles", simulated)
                for k in simulated:
                    self.assertEqual(first["metrics"][k], second["metrics"][k], k)
                self.assertEqual(first["ngx_hash"], second["ngx_hash"])
                self.assertEqual(first["anchor_hash"], second["anchor_hash"])
                for m in self.bench["end_to_end"]:
                    self.assertIn(m["name"], first["metrics"])
                for m in self.bench["per_layer"]:
                    self.assertIn(m["name"], layers)


if __name__ == "__main__":
    unittest.main()
