#!/usr/bin/env bash
# Builds the concurrency-sensitive binaries under ThreadSanitizer into
# build-threadsan/ and runs them. The repo's only TSan stage: the other
# gate scripts leave their sanitizer runs here (ASan/UBSan is
# scripts/check_asan.sh). Usage:
#   scripts/check_tsan.sh
#
#   - parallel_test, matrix_test, csr_test, graph_test, core_test: the
#     execution substrate (common/parallel.*), the kernels dispatching to
#     its pool, and the hypergroup builders' per-vertex fan-out;
#   - kernel_parity_test, inference_test: the kernel dispatch atomics and
#     the per-predictor inference plans;
#   - sharding_test: the spilled plan's Gather faulting blocks in under
#     threads 1/2/8, and its fault path;
#   - observability_test: metrics and trace rings written from workers;
#   - serve_test: the queue/dispatcher hand-off;
#   - robustness_test: the ensemble fans members out over the pool from
#     the serving dispatcher;
#   - dynamic_test: the writer thread beside the dispatcher, reads beside
#     an in-flight apply, and the published-generation probe;
#   - bench_serve_load, a small fault-injected hot-key mix: the coalescing
#     map and the shared score cache under overload.
set -eu
cd "$(dirname "$0")/.."

tests=(parallel_test matrix_test csr_test graph_test core_test
       observability_test serve_test kernel_parity_test inference_test
       sharding_test robustness_test dynamic_test)

build_dir="build-threadsan"
cmake -B "$build_dir" -S . -DAHNTP_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" --target \
      "${tests[@]}" bench_serve_load

# Oversubscribe on purpose: more workers than cores shakes out ordering
# bugs that a matched count can hide.
export AHNTP_THREADS="${AHNTP_THREADS:-8}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

status=0
for t in "${tests[@]}"; do
  echo "########## $t (TSan, AHNTP_THREADS=$AHNTP_THREADS) ##########"
  "$build_dir/tests/$t" || status=$?
done

echo "########## bench_serve_load hot-key fault mix (TSan) ##########"
repo_root="$(pwd)"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
(cd "$workdir" &&
 AHNTP_FAULTS='serve.infer@~0.75' \
 "$repo_root/$build_dir/bench/bench_serve_load" \
     --scale=0.01 --fault_seed=42 --serve_queue_capacity=32 \
     --strict_reserve=8 > stdout_load.txt) || status=$?
exit "$status"
