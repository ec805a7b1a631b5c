"""Self-tests for the benchmark: its checkers, its op accounting, and a tiny
smoke run of every workload.

    python3 perfbench/selftest.py          # about a minute

A deliberately wrong answer must count as a failed op, exactly like a crash;
a documented rejection that the input calls for must not.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.use_source_tree()

import oracles  # noqa: E402
import workloads  # noqa: E402
from ajimage import (  # noqa: E402
    AbelianGroup,
    CoverVerdict,
    DegenerateArrangementError,
    MWPoint,
    d2n_cover_exists,
    fiber_data,
    generate_arrangement,
)
from ajimage.dihedral import ArrangementType  # noqa: E402

RUN = str(common.BENCH_DIR / "run.py")


def outcome(run, check, rejects=None) -> workloads.LoopResult:
    result = workloads.LoopResult()
    workloads.run_op(workloads.Op("test", run, check, rejects), 0, common.NullTracer(), result)
    return result


class CheckerTests(unittest.TestCase):
    def test_catalog_closed_forms_accept_the_library(self):
        for kind in ("III", "IV", "IV*", "III*", "II*", "I2", "I7", "I12", "I0*", "I5*", "I8*"):
            self.assertIsNone(oracles.check_catalog(kind, fiber_data(kind)), kind)

    def test_wrong_component_group_is_a_failed_op(self):
        wrong = dataclasses.replace(fiber_data("I7"), group=AbelianGroup((3,)))
        self.assertIn("component group", oracles.check_catalog("I7", wrong))
        res = outcome(lambda tr: wrong, lambda data: oracles.check_catalog("I7", data))
        self.assertEqual((res.attempted, res.failed), (1, 1))

    def test_wrong_inverse_diagonal_is_caught(self):
        data = fiber_data("I6*")
        rows = [list(r) for r in data.a_inv.rows]
        rows[2][2] += 1
        wrong = dataclasses.replace(data, a_inv=type(data.a_inv)(rows))
        self.assertIn("A^-1", oracles.check_catalog("I6*", wrong))

    def test_wrong_image_is_a_failed_op(self):
        points = {"E+": MWPoint(3), "E-": MWPoint(-2, (0, 0))}
        self.assertIsNotNone(oracles.check_image("type2", points))
        res = outcome(lambda tr: points, lambda p: oracles.check_image("type2", p))
        self.assertEqual(res.failed, 1)
        good = {"E+": MWPoint(2, (0, 0)), "E-": MWPoint(-2, (0, 0))}
        self.assertIsNone(oracles.check_image("type2", good))

    def test_cover_goldens(self):
        for atype in ("I", "II"):
            for n in range(3, 40):
                self.assertIsNone(oracles.check_cover(atype, n, d2n_cover_exists(atype, n)))
        wrong = CoverVerdict(ArrangementType.TYPE_II, 6, True, ())
        self.assertIsNotNone(oracles.check_cover("II", 6, wrong))
        res = outcome(lambda tr: wrong, lambda v: oracles.check_cover("II", 6, v))
        self.assertEqual(res.failed, 1)

    def test_crash_is_a_failed_op(self):
        def boom(tr):
            raise ValueError("boom")

        res = outcome(boom, lambda _: None)
        self.assertEqual((res.failed, res.rejected), (1, 0))

    def test_documented_rejection_is_not_a_failure(self):
        def degenerate(tr):
            return generate_arrangement(1, 3, 1)

        res = outcome(degenerate, lambda _: "unreachable", rejects=DegenerateArrangementError)
        self.assertEqual((res.failed, res.rejected), (0, 1))
        res = outcome(degenerate, lambda _: None)  # not called for: a failure
        self.assertEqual(res.failed, 1)
        res = outcome(lambda tr: "answer", lambda _: None, rejects=DegenerateArrangementError)
        self.assertEqual(res.failed, 1)  # called for but not raised

    def test_degeneracy_oracle_matches_the_library(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(400):
            s1, s2 = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
            sign = rng.choice((1, -1))
            try:
                generate_arrangement(s1, s2, sign)
                rejected = False
            except DegenerateArrangementError:
                rejected = True
            self.assertEqual(oracles.arrangement_is_degenerate(s1, s2, sign), rejected,
                             (s1, s2, sign))
            seen.add(rejected)
        self.assertEqual(seen, {True, False})

    def test_wrong_arrangement_type_is_caught(self):
        arr = generate_arrangement(2, 3, -1)
        self.assertIsNone(oracles.check_arrangement(-1, arr, arr.type_tag, MWPoint(2, (0, 0))))
        self.assertIsNotNone(oracles.check_arrangement(-1, arr, "I", MWPoint(2, (0, 0))))
        self.assertIsNotNone(oracles.check_arrangement(-1, arr, "II", MWPoint(0, (0, 0))))

    def test_cli_checker_rejects_wrong_reports(self):
        argv = ["cover", "--type", "II", "--sweep", "3..8", "--json"]
        report = {"exists_for": [4, 6], "results": [{}] * 6}
        self.assertIsNotNone(oracles.check_cli(argv, 0, json.dumps(report)))
        report["exists_for"] = [4]
        self.assertIsNone(oracles.check_cli(argv, 0, json.dumps(report)))
        self.assertIsNotNone(oracles.check_cli(argv, 1, json.dumps(report)))
        image = ["image", "--bundled", "type2", "--json"]
        self.assertIsNotNone(oracles.check_cli(image, 0, json.dumps(
            {"n": 3, "point": {"str": "3*P_o + 0"}})))

    def test_wide_multiples_follow_the_group_law(self):
        for kind in ("I9", "I30", "I3*", "I4*", "I29*"):
            data = fiber_data(kind)
            from ajimage.kodaira import dual_class_of

            for j in (0, *data.simple):
                for k in range(-5, 6):
                    cls = data.group.scale(k, dual_class_of(data, j))
                    self.assertEqual(data.class_to_simple[cls],
                                     oracles.multiple_component(kind, j, k), (kind, j, k))

    def test_span_self_time(self):
        spans = [("op.x", 0, 100, None, 0), ("a", 10, 40, 0, 0), ("b", 50, 70, 0, 0)]
        summary = common.span_summary(spans)
        self.assertEqual(summary["op.x"]["self_s"], 50 / 1e9)
        self.assertEqual(summary["a"]["calls"], 1)


class SmokeTests(unittest.TestCase):
    """Every workload end to end at tiny size, both with and without tracing."""

    names = set(workloads.SETUP)  # the declared workloads plus catalog-cold

    def run_bench(self, workload, trace, cwd=common.ROOT):
        return subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--tiny"],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_tiny_runs(self):
        bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        for workload in sorted(self.names):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                proc = self.run_bench(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in bench[section]})
                for m in bench[section]:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_refuses_without_source(self):
        bare = common.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(common.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "pipeline-bundled", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
