#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Every case goes through run.py (which builds the binary on first use) at
smoke size, with the pinned arguments of BENCHMARK.json's command.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solo_campaign", "fleet_burst")


def pinned_arguments():
    """The arguments BENCHMARK.json's command passes after run.py."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    return command[command.index("perfbench/run.py") + 1:]


def run(workload, seed=7, trace=0, extra=(), cwd=ROOT):
    """Runs one smoke-size workload; returns (exit code, result or None)."""
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    command += pinned_arguments() + list(extra)
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def spec_names(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return sorted(m["name"] for m in json.load(f)[key])


class SmokeTest(unittest.TestCase):
    """A smoke-size run of each workload, in both modes."""

    def test_every_workload_reports_every_metric(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(sorted(result["metrics"]),
                                     spec_names(key))
                    if trace == 0:
                        metrics = result["metrics"]
                        self.assertEqual(metrics["success_rate"]["value"], 1)
                        for name in ("setup_s", "events_per_s",
                                     "recovery_s", "accuracy"):
                            self.assertGreater(metrics[name]["value"], 0)


class CorrectnessGateTest(unittest.TestCase):
    """A deliberately mismatched reference must fail the run."""

    def test_mismatch_fails_solo_and_fleet(self):
        for workload in ("solo_campaign", "fleet_burst"):
            with self.subTest(workload=workload):
                code, result = run(workload, extra=["--inject-mismatch"])
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["metrics"]["success_rate"]["value"], 1)


class DeterminismTest(unittest.TestCase):
    """Deterministic metrics repeat exactly for a seed."""

    COUNTS = ("graph.ppr_seeds_solved_per_create", "graph.ppr_seed_nnz",
              "estimation.refresh_rounds",
              "estimation.dirty_workers_per_round",
              "estimation.ppr_estimate_terms", "assign.scheme_recomputations",
              "assign.plan_hit_ratio", "assign.plan_stale",
              "assign.top_sets_computed_per_recompute", "assign.test_share",
              "journal.bytes_per_event")

    def test_quality_and_counts_repeat(self):
        for workload in ("solo_campaign", "fleet_burst"):
            with self.subTest(workload=workload):
                first = run(workload, seed=11)[1]["metrics"]
                second = run(workload, seed=11)[1]["metrics"]
                for name in ("accuracy", "answers_per_task"):
                    self.assertEqual(first[name], second[name], name)
                first = run(workload, seed=11, trace=1)[1]["metrics"]
                second = run(workload, seed=11, trace=1)[1]["metrics"]
                for name in self.COUNTS:
                    self.assertEqual(first[name], second[name], name)

    def test_seed_changes_the_inputs(self):
        first = run("fleet_burst", seed=11)[1]["metrics"]
        second = run("fleet_burst", seed=12)[1]["metrics"]
        self.assertNotEqual(first["accuracy"], second["accuracy"])


class BareDirectoryTest(unittest.TestCase):
    """Without the program's sources the benchmark fails without a result."""

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result = run("fleet_burst", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
