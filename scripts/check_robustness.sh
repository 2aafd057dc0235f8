#!/usr/bin/env bash
# Robustness gate (DESIGN.md §16), run after tier-1 ctest: robustness_test
# (ensemble confidence, the server's abstain partition), the attack-preset
# tests in data_test and fuzz_test, and the SERVE_CONF golden in
# serve_golden_test run there (`ctest -L models` runs robustness_test
# alone); robustness_test also runs under TSan in scripts/check_tsan.sh.
# This gate runs bench_robustness at a reduced scale and checks
# BENCH_robustness.json: the schema, an abstain sweep that serves
# something and moves monotonically with the quantile, and the abstain
# gate — served AUC must beat full AUC under at least 2 attack presets
# (the bench exits non-zero when the gate fails).
# Usage:
#   scripts/check_robustness.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target bench_robustness

echo "########## bench_robustness: abstain gate + JSON schema ##########"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
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
    assert row["served"] > 0 and row["full_auc"] > 0.0, row
# Within a preset, a higher quantile abstains on more: the threshold and
# abstain rate never fall, and the served count never rises.
sweeps = {}
for row in doc["abstain_sweep"]:
    sweeps.setdefault(row["preset"], []).append(row)
for preset, rows in sweeps.items():
    rows.sort(key=lambda row: row["quantile"])
    for lo, hi in zip(rows, rows[1:]):
        for key in ("threshold", "abstain_rate"):
            assert hi[key] >= lo[key], f"{preset}: {key} falls: {lo} -> {hi}"
        assert hi["served"] <= lo["served"], \
            f"{preset}: served rises: {lo} -> {hi}"
gates = doc["gates"]
assert gates["pass"] is True, gates
assert gates["passing_presets"] >= gates["required_presets"], gates
print(f'BENCH_robustness.json OK ({len(doc["table"])} table rows, '
      f'{len(doc["abstain_sweep"])} sweep rows, '
      f'{gates["passing_presets"]} presets recovered AUC)')
EOF

echo "robustness checks passed"
