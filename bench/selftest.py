"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Tiny-size smoke runs of every workload, checked against the output schema;
a corrupted reference, which must fail the run; a directory without the
program, where the benchmark must refuse to run; the self-time arithmetic
on synthetic span trees; and the limits on BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402
from tracing import Span, self_times  # noqa: E402

ROOT = worker.ROOT
SCRATCH = worker.OUT_DIR / "selftest"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, "r", {})


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        spans = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, 0), span(2, 5.0, 9.0, 0), span(3, 6.0, 7.0, 2)]
        self.assertEqual(self_times(spans), [3.0, 3.0, 3.0, 1.0])

    def test_overlapping_and_overhanging_children(self):
        # the children cover [2, 8] and [9, 10] of the parent's interval
        spans = [span(0, 0.0, 10.0), span(1, 2.0, 6.0, 0), span(2, 4.0, 8.0, 0), span(3, 9.0, 12.0, 0)]
        self.assertEqual(self_times(spans)[0], 3.0)

    def test_leaf_is_its_duration(self):
        self.assertEqual(self_times([span(0, 1.5, 2.0)]), [0.5])


class BenchmarkFile(unittest.TestCase):
    def test_limits(self):
        b = benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual({w["name"] for w in b["workloads"]}, set(worker.WORKLOADS))
        # 4 + 22 runs per workload, each about 10 s longer than run_seconds, fit in 3420 s
        self.assertLessEqual((4 + 22 * len(b["workloads"])) * (b["run_seconds"] + 10), 3420)
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))


class Smoke(unittest.TestCase):
    def check_schema(self, proc, specs):
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        res = last_json(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(res["correct"], True)
        self.assertEqual(res["failed"], 0)
        self.assertIsInstance(res["attempted"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in specs])
        for m in specs:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], float)
        return res["metrics"]

    def test_every_workload_untraced(self):
        for w in worker.WORKLOADS:
            with self.subTest(workload=w):
                proc = run_bench("--workload", w, "--seed", "42", "--seconds", "1", "--trace", "0",
                                 "--scale", "tiny")
                metrics = self.check_schema(proc, benchmark()["end_to_end"])
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_every_workload_traced(self):
        for w in worker.WORKLOADS:
            with self.subTest(workload=w):
                proc = run_bench("--workload", w, "--seed", "42", "--seconds", "1", "--trace", "1",
                                 "--scale", "tiny")
                metrics = self.check_schema(proc, benchmark()["per_layer"])
                self.assertGreater(metrics["trace.coverage"]["value"], 0.5)
                self.assertLessEqual(metrics["trace.coverage"]["value"], 1.0)


class Gates(unittest.TestCase):
    def test_corrupted_reference_fails_the_run(self):
        ref = SCRATCH / "reference"
        shutil.rmtree(ref, ignore_errors=True)
        shutil.copytree(BENCH_DIR / "reference", ref)
        path = ref / worker.REFERENCE["exact-g1"]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace(",51,51,0,", ",51,51,1,")  # q=101 row: wrong offset
        path.write_text("".join(lines), encoding="utf-8")
        proc = run_bench("--workload", "exact-g1", "--seed", "42", "--seconds", "1", "--trace", "0",
                         "--scale", "tiny", "--reference-dir", str(ref))
        self.assertNotEqual(proc.returncode, 0)
        res = last_json(proc)
        self.assertIs(res["correct"], False)
        self.assertGreater(res["failed"] / res["attempted"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench("--workload", "exact-g1", "--seed", "1", "--seconds", "1", "--trace", "0",
                         root=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
