#!/usr/bin/env python3
"""Unit tests for the CI perf gate (tools/check_bench.py), run from CTest
as `check_bench_unit`.  Stdlib only."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402


def qr_case(**over):
    case = {
        "kind": "qr", "precision": "2d", "rows": 128, "cols": 64, "tile": 8,
        "modeled_kernel_ms": 50.0, "seq_wall_ms": 400.0, "par_wall_ms": 200.0,
        "speedup": 2.0, "bit_identical": True, "tally_conserved": True,
    }
    case.update(over)
    return case


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write_doc(self, name, cases, hw=4):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"hardware_concurrency": hw, "cases": cases}, f)
        return path

    def run_gate(self, new, base, *flags):
        argv = sys.argv
        sys.argv = ["check_bench.py", new, base, *flags]
        try:
            return check_bench.main()
        finally:
            sys.argv = argv

    def test_identical_runs_pass(self):
        new = self.write_doc("new.json", [qr_case()])
        base = self.write_doc("base.json", [qr_case()])
        self.assertEqual(self.run_gate(new, base), 0)

    def test_modeled_regression_fails(self):
        new = self.write_doc("new.json", [qr_case(modeled_kernel_ms=80.0)])
        base = self.write_doc("base.json", [qr_case()])
        self.assertEqual(self.run_gate(new, base), 1)

    def test_missing_case_fails(self):
        new = self.write_doc("new.json", [qr_case()])
        base = self.write_doc("base.json",
                              [qr_case(), qr_case(precision="4d")])
        self.assertEqual(self.run_gate(new, base), 1)

    def test_zero_baseline_modeled_ms_is_skipped_not_crashed(self):
        # A nonpositive baseline denominator must neither divide by zero
        # nor fail the gate — it is surfaced as a note.
        new = self.write_doc("new.json", [qr_case(modeled_kernel_ms=10.0)])
        base = self.write_doc("base.json", [qr_case(modeled_kernel_ms=0.0)])
        self.assertEqual(self.run_gate(new, base), 0)
        base = self.write_doc("base2.json", [qr_case(modeled_kernel_ms=-1.0)])
        self.assertEqual(self.run_gate(new, base), 0)

    def test_isa_field_joins_the_case_key(self):
        # Two cases equal in every dimension but "isa" must coexist (no
        # duplicate-key abort) and match their own baseline entries.
        cases = [qr_case(kind="simd", isa="avx2", simd_speedup=1.6),
                 qr_case(kind="simd", isa="avx512", simd_speedup=1.8)]
        new = self.write_doc("new.json", cases)
        base = self.write_doc("base.json", cases)
        self.assertEqual(self.run_gate(new, base), 0)

    def test_simd_floor_gates_new_cases(self):
        base = self.write_doc("base.json", [qr_case()])
        below = self.write_doc("below.json", [
            qr_case(),
            qr_case(kind="simd", isa="avx2", simd_speedup=1.1)])
        self.assertEqual(
            self.run_gate(below, base, "--min-simd-speedup", "1.3"), 1)
        above = self.write_doc("above.json", [
            qr_case(),
            qr_case(kind="simd", isa="avx2", simd_speedup=1.5)])
        self.assertEqual(
            self.run_gate(above, base, "--min-simd-speedup", "1.3"), 0)

    def test_simd_floor_respects_min_wall(self):
        # Below --min-wall-ms the ratio is timing noise: not gated.
        base = self.write_doc("base.json", [qr_case()])
        new = self.write_doc("new.json", [
            qr_case(),
            qr_case(kind="simd", isa="avx2", simd_speedup=0.5,
                    seq_wall_ms=5.0)])
        self.assertEqual(
            self.run_gate(new, base, "--min-simd-speedup", "1.3"), 0)

    def test_simd_floor_off_by_default(self):
        base = self.write_doc("base.json", [qr_case()])
        new = self.write_doc("new.json", [
            qr_case(),
            qr_case(kind="simd", isa="avx2", simd_speedup=0.5)])
        self.assertEqual(self.run_gate(new, base), 0)

    def test_cache_floor_gates_new_cases(self):
        # The warm-cache floor covers every new case carrying the field,
        # baselined or not — a fresh servehit case must not ship with the
        # warm path losing to cold.
        base = self.write_doc("base.json", [qr_case()])
        below = self.write_doc("below.json", [
            qr_case(),
            qr_case(kind="servehit", speedup=1.1, cache_hit_speedup=1.1)])
        self.assertEqual(
            self.run_gate(below, base, "--min-cache-hit-speedup", "1.3"), 1)
        above = self.write_doc("above.json", [
            qr_case(),
            qr_case(kind="servehit", speedup=2.5, cache_hit_speedup=2.5)])
        self.assertEqual(
            self.run_gate(above, base, "--min-cache-hit-speedup", "1.3"), 0)

    def test_cache_floor_respects_min_wall(self):
        base = self.write_doc("base.json", [qr_case()])
        new = self.write_doc("new.json", [
            qr_case(),
            qr_case(kind="servehit", cache_hit_speedup=0.5,
                    seq_wall_ms=5.0)])
        self.assertEqual(
            self.run_gate(new, base, "--min-cache-hit-speedup", "1.3"), 0)

    def test_cache_floor_off_by_default(self):
        base = self.write_doc("base.json", [qr_case()])
        new = self.write_doc("new.json", [
            qr_case(),
            qr_case(kind="servehit", cache_hit_speedup=0.5)])
        self.assertEqual(self.run_gate(new, base), 0)

    def test_non_bit_identical_fails(self):
        new = self.write_doc("new.json", [qr_case(bit_identical=False)])
        base = self.write_doc("base.json", [qr_case()])
        self.assertEqual(self.run_gate(new, base), 1)

    def test_unreadable_json_exits_2(self):
        path = os.path.join(self.dir.name, "broken.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        base = self.write_doc("base.json", [qr_case()])
        with self.assertRaises(SystemExit) as ctx:
            self.run_gate(path, base)
        self.assertEqual(ctx.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
