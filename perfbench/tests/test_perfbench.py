"""Self-tests of the benchmark, run through its own command line.

Usage (from the repository root; builds the benchmark binary on first use):

    python3 -m unittest discover -s perfbench/tests -v

Workload runs use --tiny inputs and a short --seconds so the suite takes
well under a minute; the measured workloads never use --tiny.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, run=RUN):
    return subprocess.run([sys.executable, str(run), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def tiny_run(workload, trace, *extra):
    return bench("--workload", workload, "--seed", 7, "--seconds", 0.2, "--trace", trace,
                 "--tiny", *extra)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stamp_of(proc):
    line = next(l for l in proc.stdout.splitlines() if l.startswith("stamp "))
    return json.loads(line[len("stamp "):])


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs_and_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                fingerprints = []
                for seed in (1, 1, 2):
                    proc = bench("--workload", workload, "--seed", seed, "--print-inputs")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    fingerprints.append(proc.stdout.strip())
                self.assertEqual(fingerprints[0], fingerprints[1])
                self.assertNotEqual(fingerprints[0], fingerprints[2])


class Output(unittest.TestCase):
    def test_printed_metrics_are_exactly_the_listed_ones(self):
        listed = {
            0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = tiny_run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    result = result_of(proc)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, listed[trace])
                    stamp = stamp_of(proc)
                    for key in ("commit", "nproc", "build_type", "seed", "workers",
                                "effective_cores"):
                        self.assertIn(key, stamp)
                    self.assertEqual(stamp["seed"], 7)
                    # Timed untraced sweep calls hand SweepRunner no task
                    # observer. The scheduler workloads report 0 by
                    # construction: Scheduler has no getter to check.
                    self.assertEqual(stamp["untraced_instruments"], 0)
                    if trace == 0:
                        # The unscaled wall time and the reference kernel's
                        # time behind the host-speed scaling.
                        raw = {l.split()[1] for l in proc.stdout.splitlines()
                               if l.startswith("raw ")}
                        self.assertEqual(raw, {"wall_s", "kernel_s"})


class Gate(unittest.TestCase):
    def test_broken_check_fails_the_command(self):
        for workload in WORKLOADS:
            for check in ("invariant", "digest"):
                with self.subTest(workload=workload, check=check):
                    proc = tiny_run(workload, 0, "--break", check)
                    self.assertNotEqual(proc.returncode, 0)
                    result = result_of(proc)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertEqual(result["metrics"], {})

    def test_refuses_to_run_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1,
                         "--trace", 0, cwd=tmp, run=Path(tmp) / "perfbench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
