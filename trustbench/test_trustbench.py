#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (2 s per workload).

    python3 trustbench/test_trustbench.py

Checks that every workload prints exactly the metrics BENCHMARK.json names,
with their units, in both modes; that an injected wrong score is
counted as a failed operation and fails the command; and that the command
fails without printing a result when the repository's sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Every workload prints every end-to-end metric; its operation is a read on
# the serve workloads and an epoch on train.
END_TO_END = ["setup_s", "peak_rss_mb", "op_p50_ms", "op_tail_ms", "op_per_s"]
WORKLOADS = ["serve_read", "serve_sharded", "serve_mutate", "train"]
# Per-layer metrics that must read above 0 on a workload: the figures the
# end-to-end set leaves to the layers, and each workload's dominant layer.
LAYER_NONZERO = {
    "serve_read": ["serve.read_slo_ratio", "serve.cache_hit_ratio"],
    "serve_sharded": ["serve.read_slo_ratio", "models.shard_faults_per_batch"],
    "serve_mutate": ["serve.read_slo_ratio", "serve.write_p50_ms",
                     "serve.write_tail_ms", "core.apply_p50_ms"],
    "train": ["core.test_auc", "tensor.matmul_gflop_per_epoch"],
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, seconds=2, extra=(), cwd=ROOT, script=RUN,
        env=None):
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)] + list(extra),
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class MetricsTest(unittest.TestCase):
    def check(self, workload, trace, expected):
        units = {m["name"]: m["unit"]
                 for m in spec()["per_layer" if trace else "end_to_end"]}
        code, result, err = run(workload, trace=trace)
        self.assertEqual(code, 0, err[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], float, name)
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, 0, END_TO_END)
                for name in END_TO_END:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)

    def test_per_layer_metrics(self):
        names = [m["name"] for m in spec()["per_layer"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, 1, names)
                for name in LAYER_NONZERO[workload]:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)

    def test_every_workload_is_tested(self):
        self.assertEqual(sorted(w["name"] for w in spec()["workloads"]),
                         sorted(WORKLOADS))
        self.assertEqual([m["name"] for m in spec()["end_to_end"]],
                         END_TO_END)


class CorrectnessCheckTest(unittest.TestCase):
    def test_injected_mismatch_is_a_failure(self):
        for workload in ("serve_read", "serve_sharded", "serve_mutate"):
            with self.subTest(workload=workload):
                code, result, err = run(workload,
                                        extra=["--inject-mismatch"])
                self.assertNotEqual(code, 0, err[-2000:])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "trustbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env_script = os.path.join(scratch, "trustbench", "run.py")
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            code, result, _ = run("serve_read", cwd=scratch,
                                  script=env_script, env=env)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
