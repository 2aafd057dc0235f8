#!/usr/bin/env bash
# Spilled-inference gate (DESIGN.md §14), run after tier-1 ctest:
# sharding_test (partitioner, streamed edge routing, the bounded-LRU
# inference plan bitwise vs K=1) runs there (`ctest -L graph` runs that
# subsystem's tests alone) and under TSan in scripts/check_tsan.sh. This
# gate runs a small bench_scale sweep whose
# cross-K score-digest CHECK is the sharded-vs-monolithic digest diff — the
# parent process aborts if any shard count changes a single output bit.
# Usage:
#   scripts/check_scale.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target bench_scale

echo "########## bench_scale digest diff (sharded vs monolithic) ##########"
# Small populations keep the gate fast; the shard list must include 1 so
# the cross-K digest equality CHECK compares against the monolithic oracle.
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
repo_root="$(pwd)"
(cd "$workdir" && \
 "$repo_root/$build_dir/bench/bench_scale" \
     --users=2000,8000 --shards=1,4 --pairs=512)

echo "scale checks passed"
