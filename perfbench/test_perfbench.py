#!/usr/bin/env python3
"""Tests of the DirQ benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the repository root. The first test builds dirq_perfbench
through run.py if needed. Scratch files go under .bench_build/.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench_tests"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args, cwd=ROOT, runner=HERE / "run.py"):
    """Runs the benchmark; returns (exit code, stdout lines, result or None)."""
    proc = subprocess.run([sys.executable, str(runner), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def quick(workload, trace, *extra):
    return run_bench("--workload", workload, "--seed", "42", "--seconds", "1",
                     "--trace", str(trace), *extra)


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_declared_names_and_units(self):
        names = set()
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
            self.assertTrue(UNIT.fullmatch(m["unit"]), m)
            self.assertNotIn(m["name"], names)
            names.add(m["name"])
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]],
            ["paper_grid", "scale_5000", "multisink_lmac", "serve"])

    def check_printed(self, trace, section):
        code, _, result = quick("multisink_lmac", trace)
        self.assertEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        declared = {m["name"]: m["unit"] for m in self.spec[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for v in result["metrics"].values():
            self.assertEqual(set(v), {"value", "unit"})
            self.assertIsInstance(v["value"], (int, float))

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check_printed(0, "end_to_end")

    def test_traced_prints_every_per_layer_metric(self):
        self.check_printed(1, "per_layer")


class PinnedDigests(unittest.TestCase):
    def corrupted_pins(self, workload):
        lines = (HERE / "pins.txt").read_text().splitlines()
        out = []
        for line in lines:
            if line.startswith(workload + " "):
                name, digest = line.split()
                flipped = "0" if digest[-1] != "0" else "1"
                line = f"{name} {digest[:-1]}{flipped}"
            out.append(line)
        SCRATCH.mkdir(parents=True, exist_ok=True)
        path = SCRATCH / "pins_corrupted.txt"
        path.write_text("\n".join(out) + "\n")
        return path

    def test_true_pins_pass(self):
        code, _, result = quick("multisink_lmac", 0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_corrupted_pin_reports_failed_operations(self):
        pins = self.corrupted_pins("multisink_lmac")
        for trace in (0, 1):
            code, lines, result = quick("multisink_lmac", trace, "--pins",
                                        str(pins))
            self.assertEqual(code, 0)
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], result["attempted"])
            self.assertTrue(any(l.startswith("FAILED") for l in lines))


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, _, result = run_bench(
            "--workload", "serve", "--seed", "1", "--seconds", "1",
            "--trace", "0", cwd=bare, runner=bare / HERE.name / "run.py")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
