#!/usr/bin/env bash
# Runs every bench binary, teeing the combined output: bench_paper (every
# paper table and figure, writing BENCH_paper.json), the serving, inference,
# scale, robustness and dynamic harnesses, and the micro-benchmarks. Usage:
#   scripts/run_all_benches.sh [output-file] [-- extra flags for the
#   non-micro binaries, e.g. --scale=0.125 --seeds=3 --threads=8]
#
# Thread plumbing: AHNTP_THREADS (default: all cores) configures the
# execution substrate for every binary; the non-micro binaries additionally
# accept --threads=N, and each records the resolved count in its
# BENCH_META JSON line. google-benchmark binaries emit JSON per run via
# --benchmark_out, with the thread count embedded in the file name.
set -u
cd "$(dirname "$0")/.."

out="${1:-bench_output.txt}"
shift || true
[ "${1:-}" = "--" ] && shift

# Default the substrate's worker count explicitly so it is recorded even
# when the caller sets nothing.
export AHNTP_THREADS="${AHNTP_THREADS:-$(nproc 2>/dev/null || echo 1)}"

{
  echo "BENCH_META {\"suite\": \"run_all_benches\", \"threads\": ${AHNTP_THREADS}}"
  for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "########## $b ##########"
    case "$b" in
      *micro*)  # google-benchmark binaries reject our flags; JSON sidecar
        "$b" --benchmark_out="${b##*/}.threads${AHNTP_THREADS}.json" \
             --benchmark_out_format=json
        ;;
      *) "$b" --threads="${AHNTP_THREADS}" "$@" ;;
    esac
  done
} 2>&1 | tee "$out"
