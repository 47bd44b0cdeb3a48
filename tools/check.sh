#!/usr/bin/env bash
# Repo-wide correctness gate. No stage reruns tests an earlier stage ran
# in the same build and environment:
# - the full ctest suite at the default settings, at MSOPDS_THREADS=4,
#   with the arena off and with the SIMD backends off (every label —
#   simd, quant, scale, serve, serve_fault, memory, golden — runs inside
#   each of these legs);
# - the serving labels pinned to 1 kernel thread (`-L serve` is a regex,
#   so it also matches `serve_fault`);
# - the quant_check parity CLI (DESIGN.md §15) and a real 2-worker
#   sweep_runner smoke sweep (DESIGN.md §17);
# - verify_graph: static verification, the parallel write-overlap sweep
#   (DESIGN.md §13) and the registry gradcheck;
# - the end-to-end benchmark package's self-test;
# - clang-tidy over src/ and a Clang -Wthread-safety build of the
#   library;
# - a sanitizer matrix: MSOPDS_SANITIZE=address/undefined, each running
#   the full suite plus a multi-threaded pass over the `parallel` label,
#   and a ThreadSanitizer build running the `serve` label (and with it
#   `serve_fault`) and the `parallel` label, so the engine's hot-swap and
#   overload paths, the kernel pool and concurrent backward walks are
#   race-checked when the toolchain ships TSan;
# - the Python-free lint.
# Prints a per-stage summary table and exits non-zero if any stage
# fails. Stages whose toolchain is missing (e.g. clang-tidy or clang++
# not installed) are reported SKIP, not FAIL.
#
# Usage:
#   tools/check.sh                 full matrix (three builds; slow)
#   tools/check.sh --smoke         script self-checks + lint only (fast;
#                                  run by ctest so script rot fails tier-1)
#   tools/check.sh --no-sanitizers release build + tests + tidy + lint
set -u

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

SMOKE=0
SANITIZERS=1
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    --no-sanitizers) SANITIZERS=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

STAGE_NAMES=()
STAGE_RESULTS=()
STAGE_SECONDS=()
overall=0

run_stage() {
  # run_stage <name> <command...>
  local name="$1"; shift
  local start end rc
  echo "=== stage: $name ==="
  start=$(date +%s)
  "$@"
  rc=$?
  end=$(date +%s)
  STAGE_NAMES+=("$name")
  STAGE_SECONDS+=($((end - start)))
  if [ $rc -eq 0 ]; then
    STAGE_RESULTS+=("PASS")
  else
    STAGE_RESULTS+=("FAIL")
    overall=1
  fi
  return $rc
}

skip_stage() {
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("SKIP")
  STAGE_SECONDS+=(0)
  echo "=== stage: $1 (skipped: $2) ==="
}

summary() {
  echo
  echo "===================== check.sh summary ====================="
  printf '%-28s %-6s %8s\n' "stage" "result" "seconds"
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '%-28s %-6s %8s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}" \
           "${STAGE_SECONDS[$i]}"
  done
  echo "============================================================"
  if [ $overall -eq 0 ]; then
    echo "check.sh: all stages passed"
  else
    echo "check.sh: FAILURES above"
  fi
}

# --- script self-checks (always run; catches rot in the scripts) ------------
shell_syntax() {
  bash -n tools/check.sh && bash -n tools/lint.sh
}
run_stage "shell-syntax" shell_syntax

# --- lint (always run; no build needed) -------------------------------------
run_stage "lint" bash tools/lint.sh

if [ $SMOKE -eq 1 ]; then
  summary
  exit $overall
fi

# --- release build + tests + graph verifier ---------------------------------
build_release() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
}
run_stage "build-release" build_release
if [ "${STAGE_RESULTS[-1]}" = "PASS" ]; then
  run_stage "ctest-release" ctest --test-dir build --output-on-failure -j
  # Same suite on the multi-threaded kernels: the parallel runtime's
  # contract is bit-identical results, so every expectation must hold
  # unchanged at MSOPDS_THREADS=4.
  ctest_mt() {
    MSOPDS_THREADS=4 ctest --test-dir build --output-on-failure -j
  }
  run_stage "ctest-release-mt4" ctest_mt
  # Same suite with buffer recycling off: the arena's contract is
  # bit-identical results, so the whole tier must also pass with every
  # allocation going straight to the heap.
  ctest_arena_off() {
    MSOPDS_ARENA=0 ctest --test-dir build --output-on-failure -j
  }
  run_stage "ctest-release-arena-off" ctest_arena_off
  # Same suite with the vector backends forced off at runtime: the
  # scalar/SIMD bit-exactness contract (DESIGN.md §14) and the quantized
  # kernels' per-precision bit-identity (DESIGN.md §15) mean every
  # expectation must hold unchanged on the scalar reference kernels.
  ctest_simd_off() {
    MSOPDS_SIMD=0 ctest --test-dir build --output-on-failure -j
  }
  run_stage "ctest-release-simd-off" ctest_simd_off
  # Standalone quantization parity CLI: kernel dispatch bit parity over
  # every vector-tail remainder class, round-trip bounds, and end-to-end
  # top-K backend/thread parity.
  run_stage "quant-parity" ./build/tools/quant_check
  # Serving and overload/chaos suites pinned to one kernel thread (the
  # 4-thread run is part of ctest-release-mt4): the engine's lists must
  # be bit-identical to the offline reference, and the chaos replay must
  # give identical shed/reject/degraded traces, at any pool size.
  # `-L serve` is a regex, so it matches the serve_fault label too.
  ctest_serve_t1() {
    MSOPDS_THREADS=1 ctest --test-dir build -L serve --output-on-failure -j
  }
  run_stage "ctest-serve-t1" ctest_serve_t1
  # Crash-safe sweep smoke: a real 2-worker subprocess sweep over a
  # 4-cell toy grid, exercising dispatch, segment merge, and clean
  # shutdown outside the test harness.
  sweep_smoke() {
    local dir
    dir=$(mktemp -d) || return 1
    ./build/tools/sweep_runner --mode=master --workers=2 \
      --work_dir="$dir" --cells=4 --users=32 --items=24 --epochs=2
    local rc=$?
    [ $rc -eq 0 ] && [ -s "$dir/sweep.ckpt" ]
    rc=$?
    rm -rf "$dir"
    return $rc
  }
  run_stage "sweep-smoke" sweep_smoke
  # Static verification of a representative graph, the write-overlap
  # sweep (every registered parallel kernel's chunk grid proven disjoint,
  # plus the checker's planted-violation self-test) and the registry
  # gradcheck.
  run_stage "verify-graph" ./build/tools/verify_graph
else
  skip_stage "ctest-release" "build failed"
  skip_stage "ctest-release-mt4" "build failed"
  skip_stage "ctest-release-arena-off" "build failed"
  skip_stage "ctest-release-simd-off" "build failed"
  skip_stage "quant-parity" "build failed"
  skip_stage "ctest-serve-t1" "build failed"
  skip_stage "sweep-smoke" "build failed"
  skip_stage "verify-graph" "build failed"
fi

# --- end-to-end benchmark package --------------------------------------------
# perfbench/ compiles ../src as a package of its own, so nothing else
# rebuilds it after a src/ change. Building it and running its self-test
# catches a library change that breaks the benchmark.
perfbench_selftest() {
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release \
    && cmake --build build-perfbench -j --target perfbench_selftest \
    && ./build-perfbench/perfbench_selftest
}
run_stage "perfbench-selftest" perfbench_selftest

# --- clang-tidy over src/ ----------------------------------------------------
if command -v clang-tidy > /dev/null 2>&1; then
  tidy_src() {
    # compile_commands.json is exported by the release configure above.
    find src -name '*.cc' -print0 \
      | xargs -0 -n 8 -P "$(nproc)" clang-tidy -p build --quiet
  }
  run_stage "clang-tidy" tidy_src
else
  skip_stage "clang-tidy" "clang-tidy not installed"
fi

# --- Clang thread-safety analysis --------------------------------------------
# Compiles the library with -Wthread-safety -Werror=thread-safety so the
# util/sync.h annotations (DESIGN.md §13) are enforced, not decorative.
# Clang-only: gcc ignores the attributes, so the stage SKIPs without a
# clang++ on PATH.
if command -v clang++ > /dev/null 2>&1; then
  build_thread_safety() {
    cmake -B build-tsafety -S . -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_CXX_COMPILER=clang++ -DMSOPDS_THREAD_SAFETY=ON \
      && cmake --build build-tsafety -j --target msopds
  }
  run_stage "thread-safety" build_thread_safety
else
  skip_stage "thread-safety" "clang++ not installed (-Wthread-safety is Clang-only)"
fi

# --- sanitizer matrix: Debug builds so MSOPDS_CHECK/auto-verify stay in -----
# Each sanitizer runs the full suite — so recycled-buffer misuse (the
# arena's poisoned free lists), intrinsic and quantized tail loads past a
# buffer's end, and the scale layer's mmap/spill/pipe handling all run
# under it — plus one multi-threaded pass over the parallel suite, so
# races in the runtime are caught even without a TSan toolchain.
if [ $SANITIZERS -eq 1 ]; then
  for san in address undefined; do
    dir="build-$san"
    build_san() {
      cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Debug \
            -DMSOPDS_SANITIZE="$san" \
        && cmake --build "$dir" -j
    }
    run_stage "build-$san" build_san
    if [ "${STAGE_RESULTS[-1]}" = "PASS" ]; then
      run_stage "ctest-$san" ctest --test-dir "$dir" --output-on-failure -j
      ctest_san_mt() {
        MSOPDS_THREADS=4 ctest --test-dir "$dir" -L parallel \
          --output-on-failure -j
      }
      run_stage "ctest-$san-mt4" ctest_san_mt
    else
      skip_stage "ctest-$san" "build failed"
      skip_stage "ctest-$san-mt4" "build failed"
    fi
  done
  # ThreadSanitizer leg: the serving engine is the repo's first
  # reader/writer-concurrent code path, so its hot-swap must be checked
  # by a race detector, not only by assertions. TSan and ASan cannot
  # share a build, hence a dedicated tree running the `serve` and
  # `parallel` labels. `serve` also matches `serve_fault`: rejection,
  # shedding, degraded routing and retry/backoff cross the queue mutex
  # and the snapshot/fallback slots concurrently. `parallel` covers the
  # kernel pool and backward walks running on two threads at once.
  if echo 'int main(){return 0;}' | g++ -x c++ -fsanitize=thread - \
       -o /tmp/msopds_tsan_probe$$ > /dev/null 2>&1; then
    rm -f /tmp/msopds_tsan_probe$$
    build_thread() {
      cmake -B build-thread -S . -DCMAKE_BUILD_TYPE=Debug \
            -DMSOPDS_SANITIZE=thread \
        && cmake --build build-thread -j
    }
    run_stage "build-thread" build_thread
    if [ "${STAGE_RESULTS[-1]}" = "PASS" ]; then
      ctest_thread_serve_parallel() {
        MSOPDS_THREADS=4 ctest --test-dir build-thread -L 'serve|parallel' \
          --output-on-failure -j
      }
      run_stage "ctest-thread-serve-parallel" ctest_thread_serve_parallel
    else
      skip_stage "ctest-thread-serve-parallel" "build failed"
    fi
  else
    skip_stage "build-thread" "toolchain has no TSan runtime"
    skip_stage "ctest-thread-serve-parallel" "toolchain has no TSan runtime"
  fi
else
  skip_stage "sanitizers" "--no-sanitizers"
fi

summary
exit $overall
