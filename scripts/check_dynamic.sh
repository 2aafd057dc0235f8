#!/usr/bin/env bash
# Dynamic-update gate (DESIGN.md §17), run after tier-1 ctest (dynamic_test,
# the GraphDelta fuzz suite, and the SERVE_MUT golden in serve_golden_test
# run there; `ctest -L dynamic` runs that subsystem's tests alone). Runs
# bench_dynamic and validates the BENCH_dynamic.json schema plus the
# >= 20x 1-edge plan-patch gate (also enforced by the bench's own exit
# code). dynamic_test also runs under TSan in scripts/check_tsan.sh.
# Usage:
#   scripts/check_dynamic.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target bench_dynamic

repo_root="$(pwd)"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "########## bench_dynamic ##########"
(cd "$workdir" &&
 "$repo_root/$build_dir/bench/bench_dynamic" --scale=0.04 --iters=3 \
     --rebuilds=1 > stdout_bench.txt)
tail -n 2 "$workdir/stdout_bench.txt"

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

echo "dynamic checks passed"
