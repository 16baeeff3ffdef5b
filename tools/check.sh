#!/usr/bin/env bash
# One-command verification gate: configure + build the plain tree and the
# three sanitizer trees, run the full test suite in each, and finish with
# every --smoke bench (self-checking, non-zero exit on violation) from the
# plain tree.
#
#   tools/check.sh              # everything (slow: four builds + suites)
#   CHECK_TREES=plain tools/check.sh        # just the tier-1 gate
#   CHECK_TREES="plain asan" JOBS=8 tools/check.sh
#
# Trees land in build-check-<name>/ next to the source tree, away from the
# default build/ so a developer's incremental tree is never clobbered.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
CHECK_TREES="${CHECK_TREES:-plain asan tsan ubsan}"

cmake_flags_for() {
  case "$1" in
    plain) echo "" ;;
    asan)  echo "-DRULETRIS_ASAN=ON" ;;
    tsan)  echo "-DRULETRIS_TSAN=ON" ;;
    ubsan) echo "-DRULETRIS_UBSAN=ON" ;;
    *) echo "unknown tree: $1" >&2; exit 2 ;;
  esac
}

for tree in $CHECK_TREES; do
  dir="$ROOT/build-check-$tree"
  echo "=== [$tree] configure + build -> $dir"
  # shellcheck disable=SC2046  # word-splitting the flags is intended
  cmake -S "$ROOT" -B "$dir" $(cmake_flags_for "$tree") \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > "$dir.configure.log" 2>&1 \
    || { tail -20 "$dir.configure.log"; exit 1; }
  cmake --build "$dir" -j "$JOBS" > "$dir.build.log" 2>&1 \
    || { tail -30 "$dir.build.log"; exit 1; }
  echo "=== [$tree] ctest"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS")
done

first_tree="${CHECK_TREES%% *}"
bench_dir="$ROOT/build-check-$first_tree/bench"
echo "=== smoke benches ($first_tree tree)"
for bench in chaos_recovery composition_scaling dag_extraction \
             fleet_throughput netplan recovery_latency runtime_scaling \
             tcam_scheduler traffic_engine warm_boot; do
  echo "--- $bench --smoke"
  "$bench_dir/$bench" --smoke > /dev/null \
    || { echo "SMOKE FAILED: $bench"; exit 1; }
done

# Perf gates: every gated harness is virtual-time deterministic, so a fresh
# run must reproduce the committed baseline rows (same cells) within
# float-printing noise (fingerprints exactly). Drift means the modelled
# system changed — regenerate the baseline with `<bench> --json` and commit
# it with the change that moved the numbers.
#   fleet_throughput  smoke sweep (same geometry cells as the full one)
#   chaos_recovery    clean rows prove the fault layer costs nothing when
#                     unused, chaos rows pin recovery counters and latencies
#   netplan, runtime_scaling   full runs: both take well under a second
for gate in "fleet_throughput --smoke:BENCH_fleet" \
            "chaos_recovery --smoke:BENCH_chaos" \
            "netplan:BENCH_netplan" "runtime_scaling:BENCH_runtime"; do
  run="${gate%%:*}"
  baseline="${gate#*:}"
  bench="${run%% *}"
  echo "=== $bench perf gate (vs committed $baseline.json)"
  fresh="$ROOT/build-check-$first_tree/$baseline.fresh.json"
  # shellcheck disable=SC2086  # $run carries the bench's flags
  "$bench_dir/"$run --json "$fresh" > /dev/null \
    || { echo "BENCH FAILED: $bench (gate run)"; exit 1; }
  python3 "$ROOT/tools/bench_gate.py" "$ROOT/$baseline.json" "$fresh" \
    || { echo "PERF GATE FAILED: $bench drifted from baseline"; exit 1; }
done

echo "=== all checks passed (trees: $CHECK_TREES)"
