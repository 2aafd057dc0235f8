#!/usr/bin/env bash
# Sharded out-of-core gate (DESIGN.md §14): the sharded build and the
# shard-aware inference plan must stay bit-identical to the monolithic path
# and race-free.
#   - sharding_test: partitioner validation/fuzz boundary, halo-subgraph
#     invariants, sharded analytics + all four hypergroup builders bitwise
#     vs K=1 at threads 1/2/8, streaming-generator reassembly, and the
#     bounded-LRU inference plan (score parity, eviction accounting,
#     corruption detection);
#   - bench_scale --quick: a small sweep whose cross-K score-digest CHECK is
#     the sharded-vs-monolithic digest diff — the parent process aborts if
#     any shard count changes a single output bit.
# sharding_test also runs under TSan in scripts/check_tsan.sh.
# Usage:
#   scripts/check_scale.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target sharding_test bench_scale

echo "########## sharding_test (parity + residency assertions) ##########"
"$build_dir/tests/sharding_test"

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
