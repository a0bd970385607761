#!/usr/bin/env python3
"""The benchmark's own tests. They drive perfbench/run.py end to end, mostly
at --size tiny, and read BENCHMARK.json for the metric names and units.

    python3 perfbench/test_perfbench.py          # about two minutes
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Counters of the simulated machine: a function of the workload and seed only.
SIMULATED_UNITS = ("count", "B", "sim_ms")
HOST_COUNTS = {"exec.passes", "host.nproc", "host.budget_cores",
               "sim.workers", "replay.rounds"}


def bench(workload, trace, seed=1, size="tiny", seconds=1, reference=None,
          cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    if reference:
        cmd += ["--reference", reference]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def simulated(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in SIMULATED_UNITS and k not in HOST_COUNTS}


class Smoke(unittest.TestCase):
    def check_metrics(self, workload, trace, declared):
        r = result(bench(workload, trace))
        self.assertEqual(set(r), {"correct", "attempted", "failed",
                                  "metrics"})
        self.assertTrue(r["correct"], r)
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in r["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)
        return r["metrics"]

    def test_every_workload_emits_every_metric_with_its_unit(self):
        # run.py's list: BENCHMARK.json's workloads plus paper8_st4, which
        # runs on request only (see run.py).
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                m = self.check_metrics(workload, 0, SPEC["end_to_end"])
                self.assertEqual(m["ok_ratio"]["value"], 1)
                self.check_metrics(workload, 1, SPEC["per_layer"])


class Reference(unittest.TestCase):
    def test_corrupted_reference_scalar_counts_as_failure(self):
        with open(os.path.join(HERE, "reference.tsv")) as f:
            lines = f.read().splitlines()
        target = "scalar tiny faults128 "
        i = next(n for n, l in enumerate(lines) if l.startswith(target))
        fields = lines[i].split()
        fields[-1] = float.hex(float.fromhex(fields[-1]) * (1 + 2 ** -40))
        lines[i] = " ".join(fields)
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "reference.tsv")
            with open(bad, "w") as f:
                f.write("\n".join(lines) + "\n")
            r = result(bench("faults128", 0, reference=bad))
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])
        self.assertEqual(r["metrics"]["ok_ratio"]["value"], 0)


class Determinism(unittest.TestCase):
    def test_same_seed_gives_identical_simulated_counters(self):
        a = result(bench("faults128", 1, seed=7))["metrics"]
        b = result(bench("faults128", 1, seed=7))["metrics"]
        self.assertEqual(simulated(a), simulated(b))
        self.assertGreater(a["ckpt.recoveries"]["value"], 0)
        c = result(bench("faults128", 1, seed=8))["metrics"]
        self.assertNotEqual(simulated(a), simulated(c))

    def test_weak256_keeps_the_committed_event_counts(self):
        # bench_scale's jacobi@256 + spmv@256 (BENCH_SCALE.json).
        m = result(bench("weak256", 1, size="full"))["metrics"]
        self.assertEqual(m["sim.events"]["value"], 1055836 + 1839804)


class Layout(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("paper8", 0, cwd=tmp,
                         script=os.path.join(tmp, "perfbench", "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("\"metrics\"", proc.stdout)


if __name__ == "__main__":
    unittest.main()
