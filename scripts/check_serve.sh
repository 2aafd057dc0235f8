#!/usr/bin/env bash
# Serving-substrate gate: builds serve_demo + serve_test, drives the demo
# under env-injected faults (AHNTP_FAULTS) at --threads=1/2/8, and checks
# the robustness invariants end to end:
#   - the demo's own invariant checks pass (exit 0, no crash);
#   - SERVE_SUMMARY, SERVE_SCORES, and SERVE_LANES digests are
#     byte-identical across thread counts (the serving determinism
#     contract, now covering admission lanes, coalescing, and the score
#     cache);
#   - the fault stream actually exercised the machinery (breaker tripped
#     and recovered, degraded responses served, exactly one reload
#     rejected, hot keys coalesced, repeat wave cache-absorbed);
#   - the metrics sidecar carries the serve.* counter schema including
#     the per-lane counters.
# serve_test and the hot-key overload mix run under TSan in
# scripts/check_tsan.sh; the overload bench has its own gate,
# scripts/check_serve_load.sh.
# Usage:
#   scripts/check_serve.sh [build-dir]   (default: build)
set -eu
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
cmake -B "$build_dir" -S .
cmake --build "$build_dir" -j"$(nproc 2>/dev/null || echo 2)" \
      --target serve_demo serve_test

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "########## serve_test ##########"
"$build_dir/tests/serve_test"

echo "########## serve_demo under AHNTP_FAULTS ##########"
# serve.infer@~0.75: three quarters of inference attempts fail with
# Unavailable — enough to burn through retries, trip the breaker, degrade
# to the heuristic fallback, and then recover via probes.
run_demo() {  # <threads> <tag>
  AHNTP_FAULTS='serve.infer@~0.75' \
  "$build_dir/examples/serve_demo" \
      --fault_seed=42 --threads="$1" --scale=0.03 \
      --serve_checkpoint="$workdir/serve_$2.ckpt" \
      --metrics_out="$workdir/metrics_$2.json" > "$workdir/stdout_$2.txt"
  grep -E '^SERVE_(SUMMARY|SCORES|LANES)' "$workdir/stdout_$2.txt" \
      > "$workdir/digest_$2.txt"
}
run_demo 1 t1
run_demo 2 t2
run_demo 8 t8

for tag in t2 t8; do
  if ! diff "$workdir/digest_t1.txt" "$workdir/digest_$tag.txt"; then
    echo "FAIL: serve digests differ between --threads=1 and --threads=${tag#t}" >&2
    exit 1
  fi
done
echo "SERVE_SUMMARY, SERVE_SCORES, and SERVE_LANES identical at --threads=1/2/8"

# The run must have exercised every robustness path, and the metrics
# sidecar must carry the serve.* counter schema. python3 is the arbiter
# when present; otherwise grep for the load-bearing parts.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$workdir" <<'EOF'
import json, sys
workdir = sys.argv[1]
line = [l for l in open(f"{workdir}/stdout_t8.txt")
        if l.startswith("SERVE_SUMMARY ")][0]
summary = json.loads(line[len("SERVE_SUMMARY "):])
assert summary["retries"] > 0, "no retries under a 75% fault rate"
assert summary["breaker_trips"] >= 1, "breaker never tripped"
assert summary["breaker_recoveries"] >= 1, "breaker never recovered"
assert summary["degraded"] >= 1, "no degraded responses served"
assert summary["reload_failures"] == 1, "corrupt reload not rejected once"
assert summary["reload_success"] == 1, "pristine reload did not succeed"
assert summary["coalesced"] > 0, "hot keys never coalesced"
assert summary["cache_hits"] > 0, "the repeat wave never hit the score cache"
assert summary["coalesced_expired"] >= 1, "coalesced-expiry path not taken"
lanes_line = [l for l in open(f"{workdir}/stdout_t8.txt")
              if l.startswith("SERVE_LANES ")][0]
lanes = json.loads(lanes_line[len("SERVE_LANES "):])
assert lanes["strict_rejected"] == 0, "the strict reservation leaked"
assert lanes["besteffort_admitted"] > 0, "best-effort lane starved entirely"
metrics = json.load(open(f"{workdir}/metrics_t8.json"))
counters = metrics["counters"]
for key in ["serve.submitted", "serve.ok", "serve.retries",
            "serve.degraded", "serve.breaker_trips",
            "serve.reload_failures", "serve.reload_success",
            "serve.coalesced", "serve.cache_hits", "serve.downgraded",
            "serve.lane.strict.admitted", "serve.lane.degraded.admitted",
            "serve.lane.besteffort.admitted"]:
    assert key in counters, f"metrics sidecar missing {key}"
gauges = metrics.get("gauges", {})
assert "serve.breaker_state" in gauges, "breaker state gauge not exported"
print(f"summary OK ({summary['ok']} ok / {summary['degraded']} degraded / "
      f"{summary['retries']} retries / {summary['coalesced']} coalesced / "
      f"{summary['cache_hits']} cache hits), "
      f"sidecar OK ({len(counters)} counters)")
EOF
else
  grep -q '"breaker_trips": [1-9]' "$workdir/digest_t8.txt"
  grep -q '"breaker_recoveries": [1-9]' "$workdir/digest_t8.txt"
  grep -q '"degraded": [1-9]' "$workdir/digest_t8.txt"
  grep -q '"reload_failures": 1' "$workdir/digest_t8.txt"
  grep -q '"serve.submitted"' "$workdir/metrics_t8.json"
  grep -q '"serve.reload_failures"' "$workdir/metrics_t8.json"
  echo "summary and metrics sidecar look structurally sound (no python3)"
fi

echo "serving checks passed"
