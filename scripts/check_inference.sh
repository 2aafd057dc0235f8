#!/usr/bin/env bash
# Compiled-inference gate, run after tier-1 ctest. The unit-level parity
# suites run there: kernel_parity_test (every AVX2 kernel vs the scalar
# oracle; `ctest -L tensor`) and inference_test (compiled-vs-tape parity
# across the model zoo, int8 edge cases, the zero-allocation scoring loop,
# plan invalidation; `ctest -L models`). Both also run under TSan in
# scripts/check_tsan.sh. This gate runs bench_inference: end-to-end parity
# CHECKs (tape vs compiled, scalar-vs-AVX2-vs-int8 kernel matrix) and the
# per-model AUC guard (|AUC(int8) - AUC(fp32)| <= 0.002), run twice —
# default ISA and pinned AHNTP_KERNEL_ISA=scalar — with a JSON schema check
# on BENCH_inference.json.
# Usage:
#   scripts/check_inference.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target bench_inference

echo "########## bench_inference parity CHECKs (default ISA) ##########"
# The bench CHECK-fails on any tape/compiled score mismatch, any kernel-row
# drift past its tolerance, and any model whose AUC moves more than 0.002
# under int8 — before timing anything. A tiny iteration count keeps the
# gate fast while still exercising the warm scoring loop.
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
repo_root="$(pwd)"
(cd "$workdir" && \
 "$repo_root/$build_dir/bench/bench_inference" --iters=3 --scale=0.03)

echo "########## BENCH_inference.json schema ##########"
python3 - "$workdir/BENCH_inference.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("bench", "plan_build_ms", "rows", "shards", "kernel_isa",
            "kernels", "auc_guard"):
    assert key in doc, f"missing key: {key}"
assert doc["bench"] == "inference"
assert doc["kernel_isa"] in ("scalar", "avx2")
assert len(doc["rows"]) > 0 and len(doc["kernels"]) > 0
for row in doc["rows"]:
    for key in ("batch", "tape_ms", "compiled_ms", "speedup"):
        assert key in row, f"rows missing {key}"
isas = set()
for row in doc["kernels"]:
    for key in ("isa", "precision", "score_ms", "bytes_per_user",
                "max_delta_vs_scalar_fp32"):
        assert key in row, f"kernels missing {key}"
    assert row["isa"] in ("scalar", "avx2")
    assert row["precision"] in ("fp32", "int8")
    isas.add((row["isa"], row["precision"]))
assert ("scalar", "fp32") in isas, "scalar fp32 reference row missing"
assert any(p == "int8" for _, p in isas), "int8 row missing"
fp32 = next(r for r in doc["kernels"]
            if r["isa"] == "scalar" and r["precision"] == "fp32")
for row in doc["kernels"]:
    if row["precision"] == "int8":
        ratio = fp32["bytes_per_user"] / row["bytes_per_user"]
        assert ratio > 3.0, f"int8 table only {ratio:.2f}x smaller"
assert len(doc["auc_guard"]) > 0
for row in doc["auc_guard"]:
    for key in ("model", "auc_fp32", "auc_int8", "delta"):
        assert key in row, f"auc_guard missing {key}"
    assert row["delta"] <= 0.002, f"{row['model']}: AUC delta {row['delta']}"
print(f"schema OK: {len(doc['kernels'])} kernel rows, "
      f"{len(doc['auc_guard'])} AUC-guarded models")
EOF

echo "########## bench_inference parity CHECKs (pinned scalar ISA) ##########"
# Pinning AHNTP_KERNEL_ISA=scalar exercises the env-var resolution path and
# proves the scalar oracle still passes every gate on its own (the frozen
# pre-SIMD behaviour).
(cd "$workdir" && AHNTP_KERNEL_ISA=scalar \
 "$repo_root/$build_dir/bench/bench_inference" --iters=2 --scale=0.03)
python3 - "$workdir/BENCH_inference.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["kernel_isa"] == "scalar", doc["kernel_isa"]
print("pinned-scalar run OK")
EOF

echo "compiled-inference checks passed"
