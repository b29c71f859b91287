#!/usr/bin/env python3
"""Self-test of tools/check_bench_regression.py over tools/bench_gates.json.

The fixtures are the checked-in BENCH_*.json reports, mutated in memory and
written to a temporary directory; the evaluator runs as a subprocess, the
way CI calls it.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "check_bench_regression.py")

_spec = importlib.util.spec_from_file_location("gate_tool", TOOL)
gate_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate_tool)


def load(name):
    return gate_tool.load(os.path.join(ROOT, name))


GATES = load("tools/bench_gates.json")
BASELINE = load("BENCH_batch_lookup.json")


def current_reports():
    """One CURRENT report per gated bench, as the benches write them now."""
    return {"batch_lookup": copy.deepcopy(BASELINE),
            "serving": load("BENCH_serving.json"),
            "paged": load("BENCH_paged.json"),
            "advisor": load("BENCH_advisor.json")}


class GateTest(unittest.TestCase):
    def run_gates(self, reports, baseline=BASELINE, gates=GATES):
        """Runs the evaluator; returns (exit code, output, failed gates)."""
        with tempfile.TemporaryDirectory() as tmp:
            def dump(name, doc):
                path = os.path.join(tmp, name + ".json")
                with open(path, "w") as f:
                    json.dump(doc, f)
                return path
            argv = [sys.executable, TOOL, dump("gates", gates),
                    dump("baseline", baseline)]
            argv += [dump(f"current_{i}", doc)
                     for i, doc in enumerate(reports.values())]
            proc = subprocess.run(argv, capture_output=True, text=True)
        self.assertNotIn("Traceback", proc.stderr)
        failed = set()
        for line in proc.stdout.splitlines():
            if line.startswith("FAILED gates: "):
                failed = set(line.split()[2:])
        return proc.returncode, proc.stdout, failed

    def only_gate(self, name):
        return {"gates": [g for g in GATES["gates"] if g["name"] == name]}

    def test_checked_in_reports_pass(self):
        code, out, failed = self.run_gates(current_reports())
        self.assertEqual((code, failed), (0, set()), out)
        self.assertIn(f"OK: all {len(GATES['gates'])} gates passed", out)

    def test_each_gate_fails_alone_when_violated_once(self):
        for gate in GATES["gates"]:
            with self.subTest(gate=gate["name"]):
                reports = current_reports()
                baseline = copy.deepcopy(BASELINE)
                if "geomean_vs_baseline" in gate:
                    # Double every baseline value: each ratio becomes 0.5.
                    for block in gate["blocks"]:
                        for row in baseline.get(block, []):
                            row[gate["geomean_vs_baseline"]] *= 2
                else:
                    rows = list(gate_tool.select(reports[gate["bench"]],
                                                 gate))
                    self.assertTrue(rows, "fixture has no row to violate")
                    _, row = rows[0]
                    row[gate["field"]] = (gate["min"] - 1 if "min" in gate
                                          else gate["max"] + 1)
                code, out, failed = self.run_gates(reports, baseline)
                self.assertEqual((code, failed), (1, {gate["name"]}), out)
                self.assertIn(f"FAIL {gate['name']}: ", out)

    def test_row_gate_with_no_rows_fails(self):
        for gate in GATES["gates"]:
            if "field" not in gate:
                continue
            with self.subTest(gate=gate["name"]):
                reports = current_reports()
                doc = reports[gate["bench"]]
                kept = [id(row) for _, row in gate_tool.select(doc, gate)]
                doc[gate["block"]] = [row for row in doc[gate["block"]]
                                      if id(row) not in kept]
                code, out, failed = self.run_gates(reports)
                self.assertEqual(code, 1, out)
                self.assertIn(gate["name"], failed)
                self.assertIn(f"FAIL {gate['name']}: no {gate['block']} "
                              "row to check", out)

    def test_simd_floor_skipped_on_scalar_path(self):
        reports = current_reports()
        batch = reports["batch_lookup"]
        batch["node_search_path"] = "scalar"
        for row in batch["simd"]:
            row["speedup"] = 1.0  # scalar vs scalar: ~1x is correct
        code, out, failed = self.run_gates(reports)
        self.assertEqual((code, failed), (0, set()), out)
        self.assertIn("skipped: report header matches", out)

    def test_reader_scaling_skipped_below_four_threads(self):
        reports = current_reports()
        serving = reports["serving"]
        serving["reader_scaling_gated"] = False
        for row in serving["reader_scaling"]:
            row["scaling_vs_1"] = 1.0  # readers share too few cores
        code, out, failed = self.run_gates(reports)
        self.assertEqual((code, failed), (0, set()), out)
        self.assertIn("skipped: report header matches", out)

    def test_no_comparable_rows_fails_the_baseline_gate(self):
        renamed = {"bench": "batch_lookup", "results": [
            {"spec": "renamed", "batch": 1, "threads": 1, "speedup": 0.1}]}
        code, out, failed = self.run_gates(
            {"batch_lookup": renamed},
            gates=self.only_gate("batch_speedup_vs_baseline"))
        self.assertEqual((code, failed), (1, {"batch_speedup_vs_baseline"}),
                         out)
        self.assertIn("no row common to BASELINE and CURRENT", out)

    def test_missing_gated_field_fails_naming_the_row(self):
        for bench, field, gate in (
                ("advisor", "ratio", "advisor_ratio"),
                ("paged", "build_slowdown_vs_inram", "paged_build_slowdown")):
            with self.subTest(gate=gate):
                reports = current_reports()
                del reports[bench][bench][0][field]
                code, out, failed = self.run_gates(reports)
                self.assertEqual((code, failed), (1, {gate}), out)
                self.assertIn(f"FAIL {gate}: {bench}[0] ", out)
                self.assertIn(f"{field} is None, not a number", out)

    def test_missing_report_fails_its_gates(self):
        reports = current_reports()
        del reports["advisor"]
        code, out, failed = self.run_gates(reports)
        self.assertEqual((code, failed), (1, {"advisor_ratio"}), out)
        self.assertIn("no CURRENT report for bench advisor", out)


if __name__ == "__main__":
    unittest.main()
