#!/usr/bin/env python3
"""Exit-status tests for scripts/perf_gate.py on small synthetic JSONL pairs.

Each case writes a baseline and a current bench_dse-style row file, runs
the gate on the pair and checks its exit status: 1 for a regression or a
missing above-floor key, 0 otherwise.

Run directly (python3 tests/perf_gate_test.py) or through ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "scripts", "perf_gate.py")


def dse_row(kernel, candidates_per_sec, wall_seconds):
    return {"bench": "dse", "kernel": kernel, "mode": "cold",
            "family": "pipe-tiling", "threads": 1, "candidates": 1000,
            "pruned": 0, "wall_seconds": wall_seconds,
            "candidates_per_sec": candidates_per_sec,
            "speedup_vs_serial": 1.0}


class PerfGateTest(unittest.TestCase):

    def run_gate(self, baseline_rows, current_rows):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, rows in (("baseline.json", baseline_rows),
                               ("current.json", current_rows)):
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as handle:
                    for row in rows:
                        handle.write(json.dumps(row) + "\n")
                paths.append(path)
            # The gate appends its table to the CI job summary when this
            # is set; keep the synthetic tables out of it.
            env = {k: v for k, v in os.environ.items()
                   if k != "GITHUB_STEP_SUMMARY"}
            result = subprocess.run(
                [sys.executable, GATE, "--pair", paths[0], paths[1]],
                capture_output=True, text=True, env=env, check=False)
        return result.returncode, result.stdout + result.stderr

    def test_gated_row_twice_as_slow_fails(self):
        code, output = self.run_gate(
            [dse_row("Jacobi-2D", 10000.0, 0.1)],
            [dse_row("Jacobi-2D", 5000.0, 0.2)])
        self.assertEqual(code, 1, output)
        self.assertIn("dse/Jacobi-2D/t1", output)

    def test_identical_rows_pass(self):
        rows = [dse_row("Jacobi-2D", 10000.0, 0.1),
                dse_row("FDTD-3D", 2000.0, 0.5)]
        code, output = self.run_gate(rows, rows)
        self.assertEqual(code, 0, output)

    def test_missing_above_floor_key_fails(self):
        code, output = self.run_gate(
            [dse_row("Jacobi-2D", 10000.0, 0.1),
             dse_row("FDTD-3D", 2000.0, 0.5)],
            [dse_row("Jacobi-2D", 10000.0, 0.1)])
        self.assertEqual(code, 1, output)
        self.assertIn("dse/FDTD-3D/t1: missing", output)

    def test_sub_floor_slowdown_passes(self):
        code, output = self.run_gate(
            [dse_row("Jacobi-1D", 100000.0, 0.001)],
            [dse_row("Jacobi-1D", 50000.0, 0.002)])
        self.assertEqual(code, 0, output)


if __name__ == "__main__":
    unittest.main()
