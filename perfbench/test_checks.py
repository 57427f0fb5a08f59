#!/usr/bin/env python3
"""Negative controls for the benchmark's correctness checks.

    python3 perfbench/test_checks.py          # from the checkout root

Each case breaks one check on purpose (run.py --sabotage NAME) and asserts
that the run reports correct=false, names the tripped check, reports
ok_frac 0 and exits 1; a clean run of the same workload must pass with
ok_frac above 0.9. Runs are short (1 s, one
set-up) and use the default seed, whose results perfbench/expected.json
records. The whole file takes about two minutes.
"""

import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_SEED = json.loads((ROOT / "perfbench" / "expected.json").read_text())["default_seed"]


def run(workload, sabotage=""):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "0",
           "--setup-reps", "1"]
    if sabotage:
        cmd += ["--sabotage", sabotage]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    failed = [l.split()[2].rstrip(":") for l in lines if l.startswith("check FAIL")]
    return proc.returncode, result, failed


class CheckTrips(unittest.TestCase):
    # (workload, sabotage, a check whose name contains this must fail)
    CASES = [
        ("cluster-ladder", "conservation", "conservation"),
        ("cluster-ladder", "lost", "zero-lost"),
        ("cluster-ladder", "anchor", "calibration-fig6a-anchor"),
        ("cluster-ladder", "determinism", "rounds-repeat-bit-identical"),
        ("cluster-ladder", "straddle", "ladder-straddles-slo"),
        ("cluster-ladder", "records", "matches-expected-json"),
        ("zoo-ladder", "conservation", "conservation"),
        ("zoo-ladder", "residency", "residency"),
        ("zoo-ladder", "labels", "canary-labels-match-expected"),
        ("fig7-classify", "labels", "matches-expected-json"),
        ("fig7-classify", "conservation", "conservation"),
    ]

    def test_clean_runs_pass(self):
        for workload in ("cluster-ladder", "zoo-ladder", "fig7-classify"):
            with self.subTest(workload=workload):
                code, result, failed = run(workload)
                self.assertEqual(code, 0, failed)
                self.assertTrue(result["correct"])
                self.assertEqual(failed, [])
                self.assertGreater(result["metrics"]["ok_frac"]["value"], 0.9)

    def test_each_check_can_trip(self):
        for workload, sabotage, check in self.CASES:
            with self.subTest(workload=workload, sabotage=sabotage):
                code, result, failed = run(workload, sabotage)
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertTrue(any(check in name for name in failed), failed)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
