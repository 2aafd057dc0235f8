#!/usr/bin/env bash
# Robustness gate (DESIGN.md §16): adversarial presets, calibrated
# confidence, and abstain-aware serving.
#   - robustness_test: seed-ensemble/MC-dropout confidence (canonical
#     scores bitwise-stable, thread-count and sharded-vs-monolithic
#     invariance) and the server's abstain partition (fallback routing,
#     never-cached, FailedPrecondition without a fallback);
#   - data_test AttackTest + fuzz_test AttackSpecFuzzTest: clean-prefix
#     preservation, per-attack structure, degenerate-spec rejection, and
#     random-spec no-crash fuzzing;
#   - serve_demo at --threads=1/2/8: the SERVE_CONF digest (confidence +
#     abstain outcomes, FNV-1a over score/confidence bits) must be
#     byte-identical across thread counts, with abstained > 0 and the
#     abstained-never-cached wave symmetry held;
#   - bench_robustness at a reduced scale: BENCH_robustness.json schema
#     and the abstain gate — served AUC must beat full AUC under at least
#     2 attack presets (the bench exits non-zero when the gate fails).
# robustness_test also runs under TSan in scripts/check_tsan.sh.
# Usage:
#   scripts/check_robustness.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target robustness_test data_test fuzz_test serve_demo \
               bench_robustness

echo "########## robustness_test (uncertainty + abstain) ##########"
"$build_dir/tests/robustness_test"

echo "########## attack presets: structure + degenerate specs ##########"
"$build_dir/tests/data_test" --gtest_filter='AttackTest.*'
"$build_dir/tests/fuzz_test" --gtest_filter='*AttackSpecFuzzTest*'

echo "########## serve_demo SERVE_CONF digest at --threads=1/2/8 ##########"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
run_demo() {  # <threads> <tag>
  "$build_dir/examples/serve_demo" \
      --threads="$1" --scale=0.03 \
      --serve_checkpoint="$workdir/conf_$2.ckpt" > "$workdir/stdout_$2.txt"
  grep '^SERVE_CONF' "$workdir/stdout_$2.txt" > "$workdir/conf_$2.txt"
}
run_demo 1 t1
run_demo 2 t2
run_demo 8 t8
for tag in t2 t8; do
  if ! diff "$workdir/conf_t1.txt" "$workdir/conf_$tag.txt"; then
    echo "FAIL: SERVE_CONF differs between --threads=1 and --threads=${tag#t}" >&2
    exit 1
  fi
done
echo "SERVE_CONF identical at --threads=1/2/8"
python3 - "$workdir/conf_t1.txt" <<'EOF'
import json, sys
line = open(sys.argv[1]).read()
conf = json.loads(line[len("SERVE_CONF "):])
assert float.fromhex(conf["threshold"]) > 0.0, "degenerate threshold"
assert conf["abstained"] > 0, "abstain path never taken"
assert conf["ok"] > 0, "no confident primary responses"
assert conf["degraded"] >= conf["abstained"], "abstains not served degraded"
assert conf["cache_hits"] > 0, "confident repeats not cache-absorbed"
assert len(conf["digest"]) == 16, "malformed digest"
print(f'SERVE_CONF OK ({conf["abstained"]} abstained / {conf["ok"]} ok / '
      f'{conf["cache_hits"]} cache hits)')
EOF

echo "########## bench_robustness: abstain gate + JSON schema ##########"
# Reduced scale/epochs keep the gate fast; the bench itself exits non-zero
# when abstention fails to recover AUC under >= 2 attack presets.
repo_root="$(pwd)"
(cd "$workdir" && \
 "$repo_root/$build_dir/bench/bench_robustness" \
     --scale=0.04 --epochs=25 --models=SGC,AHNTP --threads="$(nproc 2>/dev/null || echo 2)")
python3 - "$workdir/BENCH_robustness.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("bench", "schema_version", "table", "abstain_sweep", "gates"):
    assert key in doc, f"missing key: {key}"
assert doc["bench"] == "robustness"
presets = {row["preset"] for row in doc["table"]}
assert {"clean", "sybil", "spam", "camouflage", "shift"} <= presets, presets
for row in doc["table"]:
    assert 0.0 <= row["auc"] <= 1.0 and 0.0 <= row["ece"] <= 1.0, row
for row in doc["abstain_sweep"]:
    assert 0.0 <= row["abstain_rate"] <= 1.0, row
    assert row["served"] + 0 >= 0 and row["full_auc"] > 0.0, row
gates = doc["gates"]
assert gates["pass"] is True, gates
assert gates["passing_presets"] >= gates["required_presets"], gates
print(f'BENCH_robustness.json OK ({len(doc["table"])} table rows, '
      f'{len(doc["abstain_sweep"])} sweep rows, '
      f'{gates["passing_presets"]} presets recovered AUC)')
EOF

echo "robustness checks passed"
