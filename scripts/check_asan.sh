#!/usr/bin/env bash
# Builds the test suite with ASan+UBSan (AHNTP_SANITIZE=address) and runs
# the fault-tolerance-sensitive tests. Usage:
#   scripts/check_asan.sh [extra test binaries...]
#
# ASan/UBSan is the gate for the robustness layer (common/fault.*,
# common/fileio.*, nn/serialization.*, the divergence guard, and the sweep
# state machinery): corruption handling parses attacker-shaped bytes, so
# the parsers must come back clean under sanitizers before changes land.
# It is also the gate for the AVX2 GEMM kernels (tensor/kernels_avx2.cc),
# whose 8-wide unaligned and masked loads at row and column tails must stay
# inside their buffers: kernel_parity_test and matrix_test drive them. And
# it is the gate for tape-node lifetimes: under autograd::InferenceMode an
# op drops its inputs and each intermediate dies with its last handle, so
# autograd_test, inference_test and models_test run every encoder's forward
# in both modes under ASan. Backward frees the tape as it walks it, and
# inside Trainer::Fit's tensor::RecycleScope freed buffers are cached
# poisoned, so a read of a released grad or value reports here:
# kernel_golden_test and core_test run the training path.
set -eu
cd "$(dirname "$0")/.."

tests=(fault_test fuzz_test nn_test data_test core_test common_test
       kernel_parity_test kernel_golden_test matrix_test autograd_test
       inference_test models_test "$@")

build_dir="build-addresssan"
cmake -B "$build_dir" -S . -DAHNTP_SANITIZE=address \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" --target \
      "${tests[@]}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=0}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

status=0
for t in "${tests[@]}"; do
  echo "########## $t (AHNTP_SANITIZE=address) ##########"
  "$build_dir/tests/$t" || status=$?
done
exit "$status"
