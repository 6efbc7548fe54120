#!/usr/bin/env python3
"""Unit tests for bench_compare.py, run in CI via ctest (bench_compare_py).

Each case writes a baseline/current CSV pair in the bench binaries'
csvh,/csv, echo format and checks the gate's exit code: 0 = pass,
1 = regression, 2 = unreadable current dump. The zero-baseline and
non-finite cases pin the skip-with-warning behaviour — a 0.00 construction
cell (timer-resolution truncation) must never gate, and must never crash
the comparison.
"""

import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def run_compare(baseline_text, current_text, *extra_args):
    """Writes the two dumps and returns (exit_code, stdout+stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.csv")
        cur_path = os.path.join(tmp, "current.csv")
        if baseline_text is not None:
            with open(base_path, "w", encoding="utf-8") as f:
                f.write(baseline_text)
        if current_text is not None:
            with open(cur_path, "w", encoding="utf-8") as f:
                f.write(current_text)
        proc = subprocess.run(
            [sys.executable, SCRIPT, base_path, cur_path, *extra_args],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr


def table(rows, header="Dataset,q.avg(ms),b.build(s),hit2(%)"):
    lines = ["csvh," + header]
    lines += ["csv," + r for r in rows]
    return "\n".join(lines) + "\n"


class BenchCompareTest(unittest.TestCase):
    def test_no_change_passes(self):
        dump = table(["DO,0.100,2.00,55.0"])
        code, out = run_compare(dump, dump)
        self.assertEqual(code, 0, out)
        self.assertIn("no regressions", out)

    def test_query_latency_regression_fails(self):
        base = table(["DO,0.100,2.00,55.0"])
        cur = table(["DO,0.200,2.00,55.0"])
        code, out = run_compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_construction_time_regression_fails(self):
        base = table(["DO,0.100,2.00,55.0"])
        cur = table(["DO,0.100,3.00,55.0"])
        code, out = run_compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("[construction]", out)

    def test_non_gated_column_ignored(self):
        base = table(["DO,0.100,2.00,55.0"])
        cur = table(["DO,0.100,2.00,99.0"])  # hit2(%) is not gated
        code, out = run_compare(base, cur)
        self.assertEqual(code, 0, out)

    def test_zero_baseline_cell_skips_with_warning(self):
        # A 0.00 construction cell (sub-resolution build) must neither
        # crash nor flag "0.00 -> 0.50" as an infinite regression.
        base = table(["DO,0.100,0.00,55.0"])
        cur = table(["DO,0.100,0.50,55.0"])
        code, out = run_compare(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("skipping uncomparable", out)

    def test_non_finite_cell_skips_with_warning(self):
        base = table(["DO,inf,2.00,55.0"])
        cur = table(["DO,0.100,2.00,55.0"])
        code, out = run_compare(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("skipping uncomparable", out)

    def test_non_numeric_marker_skipped(self):
        base = table(["DO,DNF,2.00,55.0"])
        cur = table(["DO,0.100,2.00,55.0"])
        code, out = run_compare(base, cur)
        self.assertEqual(code, 0, out)

    def test_missing_baseline_passes(self):
        cur = table(["DO,0.100,2.00,55.0"])
        code, out = run_compare(None, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("no baseline", out)

    def test_missing_current_fails(self):
        base = table(["DO,0.100,2.00,55.0"])
        code, out = run_compare(base, None)
        self.assertEqual(code, 2, out)

    def test_new_dataset_row_not_compared(self):
        base = table(["DO,0.100,2.00,55.0"])
        cur = table(["DO,0.100,2.00,55.0", "DB,9.999,9.99,1.0"])
        code, out = run_compare(base, cur)
        self.assertEqual(code, 0, out)

    def test_changed_table_header_warns_once_and_passes(self):
        # A removed column changes the header tuple: the baseline table no
        # longer matches anything, which must be reported, not silent.
        other = table(["DO,1.00"], header="Dataset,td(ms)")
        base = table(["DO,0.100,0.050,2.00"],
                     header="Dataset,scal(ms),batch(ms),b.build(s)") + other
        cur = table(["DO,0.900,2.00"],
                    header="Dataset,scal(ms),b.build(s)") + other
        code, out = run_compare(base, cur)
        self.assertEqual(code, 0, out)
        self.assertEqual(out.count("no matching table"), 1, out)
        self.assertIn("[Dataset,scal(ms),batch(ms),b.build(s)]", out)

    def test_noise_floor_suppresses_tiny_absolute_increase(self):
        # 3x ratio but only +0.0006ms: below --min-ms, so not a regression.
        base = table(["DO,0.0003,2.00,55.0"])
        cur = table(["DO,0.0009,2.00,55.0"])
        code, out = run_compare(base, cur)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
