#!/usr/bin/env bash
# Reproducible benchmark snapshot: builds the release tree and runs the
# scalar-vs-SIMD A/B bench (bench/simd_bench.cc) at pinned seeds and one
# kernel thread, writing the committed BENCH_simd.json speedup table at
# the repo root, then the quantized-serving bench (bench/quant_bench.cc)
# writing BENCH_quant.json (bytes/user and serve-dot / top-K timings at
# fp64/fp16/int8). Seeds are compiled into the benches; the thread count
# is pinned here so the tables measure kernel speed, not scheduling
# (quant_bench pins its own pool per top-K cell).
#
# Usage:
#   tools/bench_snapshot.sh           build + run, write BENCH_simd.json
#                                     and BENCH_quant.json
#   tools/bench_snapshot.sh --quick   fewer repetitions (sanity runs;
#                                     don't commit the numbers)
#
# The JSON records the probed backend and machine facts alongside each
# pair, so a committed snapshot says what it was measured on. Re-run on
# the reference machine and commit the diff when the kernels change.
set -eu

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

MIN_TIME="0.5"
REPS=3
DOT_MS=50
for arg in "$@"; do
  case "$arg" in
    --quick) MIN_TIME="0.05"; REPS=1; DOT_MS=5 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j --target simd_bench quant_bench

# MSOPDS_THREADS pins the kernel pool; the bench also pins it per case.
# MSOPDS_BENCH_SIMD_JSON places the table at the repo root for commit.
# The reporter keeps the fastest of $REPS repetitions per case, so the
# committed ratios don't wobble with background load.
MSOPDS_THREADS=1 MSOPDS_BENCH_SIMD_JSON="$ROOT/BENCH_simd.json" \
  ./build/bench/simd_bench --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions="$REPS"

echo
echo "bench_snapshot: wrote $ROOT/BENCH_simd.json"

# Quantized-serving table: per-precision snapshot bytes, the serve-dot
# hot path single-threaded, and top-K QPS at 1 and 4 kernel threads.
./build/bench/quant_bench --reps="$REPS" --dot_ms="$DOT_MS" \
  --json_out="$ROOT/BENCH_quant.json"

echo
echo "bench_snapshot: wrote $ROOT/BENCH_quant.json"
