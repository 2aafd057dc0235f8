#!/usr/bin/env python3
"""Runs one trustbench workload and prints its result as the last line.

    python3 trustbench/run.py --workload serve_read --seed 1 --seconds 20 --trace 0

Builds the repository's libraries and the trustbench driver with CMake
(into .bench_build, or $CARGO_TARGET_DIR when set), then runs the workload
in fresh processes:

* --trace 0: two set-up-only processes plus the measured one; setup_s is
  the median of the three set-up times, every other metric comes from the
  measured process. Prints the end-to-end metrics.
* --trace 1: one untraced and one traced process of the same workload and
  seed. Prints the per-layer metrics of the traced one, plus
  trace.overhead_pct, the traced run's change in the workload's headline
  metric against the untraced one.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
exit code is 0 only when every output was correct. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_read", "serve_sharded", "serve_mutate", "train")
SETUP_PROBES = 2
# Wall budget of all driver processes of one command, after the build; the
# command must end within 180 s.
RUN_BUDGET_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once and builds incrementally; returns the driver path."""
    out = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "trustbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("trustbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(out, "trustbench")


def run_driver(binary, args, run_dir, deadline):
    """Runs one driver process, killed at `deadline` (time.monotonic());
    returns its parsed result or None."""
    cmd = [binary, "--run_dir=" + run_dir] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("trustbench: timed out:", " ".join(cmd))
        return None
    for line in reversed(done.stdout.splitlines()):
        if line.startswith("TRUSTBENCH_RESULT "):
            return json.loads(line.split(" ", 1)[1])
    log("trustbench: no result from", " ".join(cmd), "exit", done.returncode)
    return None


# The end-to-end metric tracing overhead is stated against: reads per
# second on the serve workloads, epochs per second on train.
HEADLINE = "op_per_s"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one served score (serve workloads); "
                             "the run must then report a failure")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    if binary is None:
        return 3
    run_dir = os.path.join(build_dir(), "run",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    common = ["--workload=" + args.workload, "--seed=%d" % args.seed,
              "--seconds=%d" % args.seconds]
    if args.inject_mismatch:
        common.append("--inject_mismatch")

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    if args.trace:
        plain = run_driver(binary, common + ["--trace=0"], run_dir, deadline)
        result = run_driver(binary, common + ["--trace=1"], run_dir, deadline)
        if plain is None or result is None:
            return 4
        base = plain["metrics"][HEADLINE]["value"]
        traced = result["metrics"][HEADLINE]["value"]
        result["metrics"]["trace.overhead_pct"] = {
            "value": 100.0 * (base - traced) / base, "unit": "%"}
        result["notes"]["trace.overhead_basis"] = (
            "%s untraced %.6g vs traced %.6g" % (HEADLINE, base, traced))
        wanted = spec["per_layer"]
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            probe = run_driver(binary, common + ["--setup_only"], run_dir, deadline)
            if probe is None:
                return 4
            setups.append(probe["metrics"]["setup_s"]["value"])
        result = run_driver(binary, common + ["--trace=0"], run_dir, deadline)
        if result is None:
            return 4
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        result["notes"]["setup_s.samples"] = " ".join("%.4f" % s for s in setups)
        wanted = spec["end_to_end"]
        shutil.rmtree(run_dir, ignore_errors=True)

    # Exactly the metrics BENCHMARK.json names, every one on every workload.
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        log("trustbench: the driver did not report", " ".join(missing))
        return 5
    metrics = {m["name"]: {"value": float(result["metrics"][m["name"]]["value"]),
                           "unit": m["unit"]} for m in wanted}
    for key, value in sorted(result["notes"].items()):
        log("  %s: %s" % (key, value))
    log("trustbench: %s seed %d took %.1f s; ok %d refused %d" % (
        args.workload, args.seed, time.monotonic() - started,
        result["ok"], result["refused"]))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
