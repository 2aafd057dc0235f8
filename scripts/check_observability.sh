#!/usr/bin/env bash
# Observability gate, run after tier-1 ctest (observability_test and the
# golden-trace test run there; `ctest -L common` and `ctest -L core` run
# those subsystems' tests alone). Builds the quickstart pipeline and drives
# the observability layer end to end: runs it with
# --trace_out/--metrics_out, validates that the Chrome trace JSON parses
# and the metrics snapshot is non-empty, and checks the determinism
# contract (the "counters" section of the snapshot must be byte-identical
# at --threads=1 and --threads=8). Usage:
#   scripts/check_observability.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target quickstart

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "########## quickstart with tracing + metrics ##########"
run_quickstart() {  # <threads> <tag>
  "$build_dir/examples/quickstart" --scale=0.03 --epochs=3 \
      --threads="$1" \
      --trace_out="$workdir/trace_$2.json" \
      --metrics_out="$workdir/metrics_$2.json" > "$workdir/stdout_$2.txt"
}
run_quickstart 1 t1
run_quickstart 8 t8

# The trace must be valid JSON with at least one complete ("X") event, and
# the metrics snapshot valid JSON with a non-empty counters section.
python3 - "$workdir" <<'EOF'
import json, sys
workdir = sys.argv[1]
trace = json.load(open(f"{workdir}/trace_t8.json"))
events = trace["traceEvents"]
assert events, "trace has no events"
assert all(e["ph"] == "X" for e in events), "unexpected event phase"
assert {"name", "ts", "dur", "pid", "tid"} <= set(events[0]), "missing keys"
metrics = json.load(open(f"{workdir}/metrics_t8.json"))
assert metrics["counters"], "metrics snapshot has no counters"
print(f"trace OK ({len(events)} events), "
      f"metrics OK ({len(metrics['counters'])} counters)")
EOF

# Determinism: the counters section (snapshot JSON is one key per line,
# so sed can slice it) must not depend on the thread count.
counters() { sed -n '/"counters"/,/},/p' "$1"; }
if ! diff <(counters "$workdir/metrics_t1.json") \
          <(counters "$workdir/metrics_t8.json"); then
  echo "FAIL: counters differ between --threads=1 and --threads=8" >&2
  exit 1
fi
echo "counters identical at --threads=1 and --threads=8"
echo "observability checks passed"
