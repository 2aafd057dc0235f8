#!/usr/bin/env bash
# The full pre-land gate: tier-1 ctest suite, then the gates that run what
# ctest cannot (benches and their JSON checks, multi-process determinism
# diffs, sanitizer builds). Every gate assumes the ctest suite has just
# passed and does not re-run test binaries. Usage:
#   scripts/check_all.sh
#
# Stops at the first failing stage (each stage's own script reports the
# details); a clean exit means every gate passed. A gate script that has
# gone missing (renamed, dropped from a bad merge) is itself a failure —
# silently skipping it would report "all checks passed" without running it.
set -eu
cd "$(dirname "$0")/.."

gates=(
  "observability:scripts/check_observability.sh"
  "compiled inference:scripts/check_inference.sh"
  "serve overload, per-lane digests:scripts/check_serve_load.sh"
  "robustness, abstain gate:scripts/check_robustness.sh"
  "dynamic updates, write lane:scripts/check_dynamic.sh"
  "sharded scale:scripts/check_scale.sh"
  "ASan/UBSan:scripts/check_asan.sh"
  "TSan:scripts/check_tsan.sh"
)

missing=0
for gate in "${gates[@]}"; do
  script="${gate#*:}"
  if [ ! -x "$script" ]; then
    echo "MISSING GATE: $script (not found or not executable)" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "refusing to run with missing gate scripts" >&2
  exit 1
fi

echo "================ tier-1: build + ctest ================"
cmake -B build -S .
cmake --build build -j"$(nproc 2>/dev/null || echo 2)"
(cd build && ctest --output-on-failure -j"$(nproc 2>/dev/null || echo 2)")

for gate in "${gates[@]}"; do
  name="${gate%%:*}"
  script="${gate#*:}"
  echo "================ ${name} ================"
  "$script"
done

echo "all checks passed"
