#!/usr/bin/env bash
# Build and run every benchmark target CMake configured (the list it writes
# to <build-dir>/bench_targets.txt), emitting one machine-readable
# BENCH_<name>.json per bench (plus an aggregate BENCH_SUMMARY.json) so
# successive PRs can diff perf numbers mechanically.
#
# Usage:
#   bench/run_all.sh [--full] [--build-dir DIR] [--out-dir DIR]
#
#   --full        run full sweeps (default passes --quick to every bench)
#   --build-dir   CMake build tree to use            (default: build)
#   --out-dir     where to write logs + JSON          (default: bench-results)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
OUT_DIR=bench-results
QUICK_FLAG=--quick
while [[ $# -gt 0 ]]; do
  case "$1" in
    --full) QUICK_FLAG="" ;;
    --build-dir) BUILD_DIR=$2; shift ;;
    --out-dir) OUT_DIR=$2; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" --target bench_all -j"$(nproc)"

targets_file="$BUILD_DIR/bench_targets.txt"
if [[ ! -f $targets_file ]]; then
  echo "$targets_file missing: configure $BUILD_DIR with DELPHI_BUILD_BENCH=ON" >&2
  exit 2
fi
mapfile -t targets < "$targets_file"

mkdir -p "$OUT_DIR"
summary_entries=()
failures=0

for target in ${targets[@]+"${targets[@]}"}; do
  bin="$BUILD_DIR/$target"
  name=${target#bench_}
  log="$OUT_DIR/$name.log"

  # micro_primitives is a Google Benchmark binary: it has its own JSON
  # reporter and does not understand --quick.
  if [[ $name == micro_primitives ]]; then
    args=(--benchmark_out="$OUT_DIR/$name.gbench.json" --benchmark_out_format=json)
  else
    args=($QUICK_FLAG)
  fi

  start=$(date +%s.%N)
  # ${args[@]+...} keeps the empty expansion safe under set -u on bash < 4.4.
  if "$bin" ${args[@]+"${args[@]}"} >"$log" 2>&1; then ok=true; else ok=false; failures=$((failures + 1)); fi
  end=$(date +%s.%N)
  wall=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }')

  json="$OUT_DIR/BENCH_${name}.json"
  {
    printf '{\n'
    printf '  "bench": "%s",\n' "$name"
    printf '  "ok": %s,\n' "$ok"
    printf '  "wall_seconds": %s,\n' "$wall"
    printf '  "quick": %s,\n' "$([[ -n $QUICK_FLAG ]] && echo true || echo false)"
    printf '  "log": "%s",\n' "$log"
    printf '  "timestamp_utc": "%s"\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '}\n'
  } > "$json"
  summary_entries+=("{\"bench\": \"$name\", \"ok\": $ok, \"wall_seconds\": $wall}")
  printf '%-24s ok=%-5s %8ss  -> %s\n' "$name" "$ok" "$wall" "$json"
done

{
  printf '{\n  "benches": [\n'
  for i in ${summary_entries[@]+"${!summary_entries[@]}"}; do
    sep=,
    [[ $i -eq $((${#summary_entries[@]} - 1)) ]] && sep=""
    printf '    %s%s\n' "${summary_entries[$i]}" "$sep"
  done
  printf '  ],\n  "failures": %d,\n  "timestamp_utc": "%s"\n}\n' \
    "$failures" "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
} > "$OUT_DIR/BENCH_SUMMARY.json"

echo "wrote $OUT_DIR/BENCH_SUMMARY.json"
if [[ $failures -gt 0 ]]; then
  echo "$failures bench(es) failed" >&2
  exit 1
fi
