"""Consistency of BENCHMARK.json with the benchmark's own layer map.

Run with `python3 perfbench/run.py --self-test` (or `python3 -m unittest
discover perfbench`) from the repository root.
"""

import json
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
MODULES = {"sim", "prte", "pmix", "core", "fabric", "coll", "quo", "ckpt", "ft",
           "obs", "bench"}


class BenchmarkJsonTest(unittest.TestCase):
    def test_every_per_layer_metric_is_mapped(self):
        declared = [m["name"] for m in SPEC["per_layer"]]
        mapped = [m["name"] for m in LAYERS["per_layer"]]
        self.assertEqual(sorted(declared), sorted(mapped))
        self.assertEqual(len(set(mapped)), len(mapped), "duplicate layer entries")

    def test_mapping_names_existing_metrics_and_workloads(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        workloads = {w["name"] for w in SPEC["workloads"]}
        for entry in LAYERS["per_layer"]:
            self.assertIn(entry["layer"], MODULES, entry["name"])
            for move in entry["moves"]:
                self.assertIn(move["metric"], e2e, entry["name"])
                self.assertTrue(move["workloads"], entry["name"])
                for w in move["workloads"]:
                    self.assertIn(w, workloads, entry["name"])

    def test_only_observability_and_accounting_move_nothing(self):
        unmapped = {e["name"] for e in LAYERS["per_layer"] if not e["moves"]}
        self.assertEqual(unmapped, {"obs.trace_overhead_pct", "ops_failed_ratio"})

    def test_workloads_are_documented(self):
        documented = {w["name"]: w for w in LAYERS["workloads"]}
        self.assertEqual(set(documented), {w["name"] for w in SPEC["workloads"]})
        for w in documented.values():
            for key in ("shape", "main_phase", "most_work", "least_work", "cost_model"):
                self.assertTrue(w.get(key), f"{w['name']}: {key}")

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()
