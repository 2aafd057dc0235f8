#!/usr/bin/env bash
# Overload-bench gate for the serving layer (bench/bench_serve_load), run
# after tier-1 ctest (`ctest -L serve` runs the serving tests alone):
#   - runs the multi-tenant hot-key mix at 4x offered load twice, without
#     and with an AHNTP_FAULTS spec;
#   - validates the BENCH_serve_load.json schema (schema_version 2, one
#     row per (threads, lane), every row carrying the lane key);
#   - diffs the per-lane outcome digests across --threads=1/2/8: the
#     digest folds status codes, degraded/cached/coalesced flags, and
#     score bits, so any thread-count divergence in the overload-control
#     machinery fails the gate;
#   - checks the no-rejection-cliff acceptance (strict-lane shed <= 5%,
#     also enforced by the bench's own exit code).
# A small fault-injected mix also runs under TSan in scripts/check_tsan.sh.
# Usage:
#   scripts/check_serve_load.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target bench_serve_load

repo_root="$(pwd)"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

run_bench() {  # <tag> <fault-spec ('' for none)>
  (cd "$workdir" &&
   AHNTP_FAULTS="$2" "$repo_root/$build_dir/bench/bench_serve_load" \
       --scale=0.02 --fault_seed=42 > "stdout_$1.txt")
  mv "$workdir/BENCH_serve_load.json" "$workdir/bench_$1.json"
}

echo "########## bench_serve_load, fault-free ##########"
run_bench plain ''
echo "########## bench_serve_load under AHNTP_FAULTS ##########"
run_bench faults 'serve.infer@~0.75'

validate() {  # <tag>
  python3 - "$workdir/bench_$1.json" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
assert data.get("schema_version") == 2, "schema_version must be 2"
rows = data["rows"]
assert rows, "bench emitted no rows"
lanes = {"strict", "degraded", "besteffort"}
required = ("threads", "lane", "offered", "admitted", "ok", "degraded",
            "rejected", "shed_rate", "p50_ms", "p99_ms", "digest")
digests, threads_seen = {}, set()
for row in rows:
    for key in required:
        assert key in row, f"row missing {key}: {row}"
    assert row["lane"] in lanes, f"unknown lane {row['lane']}"
    threads_seen.add(row["threads"])
    digests.setdefault(row["lane"], set()).add(row["digest"])
assert len(threads_seen) >= 3, f"expected a thread sweep, got {threads_seen}"
for lane, seen in sorted(digests.items()):
    assert len(seen) == 1, \
        f"{lane} digests differ across thread counts: {sorted(seen)}"
for row in rows:
    if row["lane"] == "strict":
        assert row["shed_rate"] <= 0.05, \
            f"strict lane shed {row['shed_rate']:.2%} at threads={row['threads']}"
print(f"{sys.argv[1]}: schema v2 OK, {len(rows)} rows, per-lane digests "
      f"identical across threads {sorted(threads_seen)}")
EOF
}
validate plain
validate faults

echo "serve load checks passed"
