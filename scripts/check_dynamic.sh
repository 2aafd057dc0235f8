#!/usr/bin/env bash
# Dynamic-update gate (DESIGN.md §17):
#   - runs dynamic_test (incremental == rebuild oracles, fault rollback,
#     write-lane semantics) and the GraphDelta fuzz suite;
#   - diffs the serve_demo SERVE_MUT digest across --threads=1/2/8: the
#     digest folds mutation receipts, generations, and every read score,
#     so any thread-count divergence in the write lane fails the gate;
#   - runs bench_dynamic and validates the BENCH_dynamic.json schema plus
#     the >= 20x 1-edge plan-patch gate (also enforced by the bench's own
#     exit code).
# dynamic_test also runs under TSan in scripts/check_tsan.sh.
# Usage:
#   scripts/check_dynamic.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target dynamic_test fuzz_test serve_demo bench_dynamic

echo "########## dynamic_test ##########"
"$build_dir/tests/dynamic_test"

echo "########## GraphDelta fuzz suite ##########"
"$build_dir/tests/fuzz_test" --gtest_filter='*GraphDeltaFuzz*'

repo_root="$(pwd)"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "########## serve_demo SERVE_MUT digest across thread counts ##########"
for t in 1 2 8; do
  (cd "$workdir" &&
   "$repo_root/$build_dir/examples/serve_demo" --threads="$t" \
       > "stdout_t$t.txt")
  grep '^SERVE_MUT ' "$workdir/stdout_t$t.txt" > "$workdir/mut_t$t.txt"
done
if ! diff "$workdir/mut_t1.txt" "$workdir/mut_t2.txt" ||
   ! diff "$workdir/mut_t1.txt" "$workdir/mut_t8.txt"; then
  echo "FAIL: SERVE_MUT digest differs across thread counts" >&2
  exit 1
fi
echo "SERVE_MUT identical at --threads=1/2/8:"
cat "$workdir/mut_t1.txt"

echo "########## bench_dynamic ##########"
(cd "$workdir" &&
 "$repo_root/$build_dir/bench/bench_dynamic" --scale=0.04 --iters=3 \
     --rebuilds=1 > stdout_bench.txt)
tail -n 2 "$workdir/stdout_bench.txt"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$workdir/BENCH_dynamic.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
assert data.get("bench") == "dynamic", "bench id must be 'dynamic'"
rows = data["rows"]
assert [r["delta_edges"] for r in rows] == [1, 10, 1000], \
    f"expected delta sizes 1/10/1000, got {[r['delta_edges'] for r in rows]}"
required = ("delta_edges", "apply_ms", "plan_patch_ms", "refresh_ms",
            "plan_rebuild_ms", "pipeline_rebuild_ms", "plan_speedup",
            "pipeline_speedup", "refreshed_users", "pagerank_iters_saved")
for row in rows:
    for key in required:
        assert key in row, f"row missing {key}: {row}"
staleness = data["staleness_vs_latency"]
assert len(staleness) >= 2, "staleness tradeoff needs at least two windows"
for row in staleness:
    for key in ("window", "refreshes", "total_ms", "worst_staleness_edges"):
        assert key in row, f"staleness row missing {key}: {row}"
gate = data["gate"]
assert gate["min_plan_speedup_1edge"] == 20.0
assert gate["measured"] >= 20.0, \
    f"1-edge plan patch speedup {gate['measured']}x below the 20x gate"
print(f"{sys.argv[1]}: schema OK, 1-edge plan patch {gate['measured']}x")
EOF
else
  # No python3: grep for the load-bearing parts.
  grep -q '"bench": "dynamic"' "$workdir/BENCH_dynamic.json"
  grep -q '"delta_edges": 1000' "$workdir/BENCH_dynamic.json"
  grep -q '"staleness_vs_latency"' "$workdir/BENCH_dynamic.json"
  grep -q 'gate: 1-edge plan patch speedup' "$workdir/stdout_bench.txt"
  echo "BENCH_dynamic.json looks structurally sound (no python3)"
fi

echo "dynamic checks passed"
