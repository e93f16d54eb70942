"""Self-check of the benchmark harness.

Run from the repository root (takes a few minutes):

    python3 bench/harness_check.py

- Every workload runs once through run.py with --trace 0 and with --trace 1.
  The last line must print exactly the metrics BENCHMARK.json names, each
  with its unit, with no failed command, and both runs must have written
  the same --out bytes.
- Every workload runs one pass in-process against a deliberately wrong
  reference value; the mismatch must be counted in error_rate instead of
  passing silently.
- Without the program's sources next to it, run.py must exit nonzero
  without printing a result.

The file name keeps it out of the repository's pytest collection.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
SEED = 3

sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["WORKBENCH_THREADS"] = "1"

from impedbench import cli  # noqa: E402

cli._configure_threads()  # before numpy loads, as in a benchmark run

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        spec = _spec()
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        wanted = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for workload in WORKLOADS:
            digests = set()
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = _run(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    lines = done.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines[-6:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, wanted[trace])
                    for name, entry in result["metrics"].items():
                        self.assertEqual(set(entry), {"value", "unit"}, name)
                        self.assertIsInstance(entry["value"], (int, float), name)
                    digests.add(json.loads(lines[-2])["outputs_sha256"])
            self.assertEqual(len(digests), 1, f"{workload}: --out bytes differ between runs")


def _shifted_root(m, zeta, start):
    return complex(start) + 1e-6


class WrongReferenceCounted(unittest.TestCase):
    def _measure_with(self, workload, patch):
        import checks

        with patch(checks):
            result = run.measure(workload, SEED, seconds=0.0, trace=True, root=ROOT,
                                 min_passes=1)
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["error_rate"], 0.0)
        self.assertEqual(result["metrics"]["error_rate"], result["failed"] / result["attempted"])

    def test_fem_converge(self):
        self._measure_with(
            "fem-converge",
            lambda c: mock.patch.object(c, "polish_disk_root", _shifted_root),
        )

    def test_disk_oracle(self):
        self._measure_with(
            "disk-oracle",
            lambda c: mock.patch.object(c, "polish_disk_root", _shifted_root),
        )

    def test_cn_march(self):
        def patch(c):
            honest = c.reference_energies
            return mock.patch.object(
                c, "reference_energies", lambda seed: [e * (1 + 1e-6) for e in honest(seed)]
            )

        self._measure_with("cn-march", patch)

    def test_boundary_checks(self):
        self._measure_with(
            "boundary-checks",
            lambda c: mock.patch.object(c, "EXPECTED_GATE_VERDICT", "noncompact"),
        )


class NoProgramNoResult(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        scratch = os.path.join(ROOT, run.SCRATCH)
        os.makedirs(scratch, exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=scratch) as bare:
                shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
                shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                                ignore=shutil.ignore_patterns("__pycache__"))
                done = subprocess.run(
                    [sys.executable, os.path.join("bench", "run.py"), "--workload",
                     WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare, capture_output=True, text=True, timeout=180,
                )
        finally:
            with contextlib.suppress(OSError):
                os.rmdir(scratch)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
