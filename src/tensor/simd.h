#ifndef MSOPDS_TENSOR_SIMD_H_
#define MSOPDS_TENSOR_SIMD_H_

// Vectorized inner-loop primitives for the tensor kernels (DESIGN.md §14).
//
// This header is the *only* sanctioned home for raw SIMD intrinsics in the
// repo (determinism-lint rule 5): every kernel that wants vector code calls
// one of the primitives below, never an intrinsic directly, so the numeric
// contract lives in exactly one place.
//
// Contract. Every primitive has one semantic definition, shared verbatim by
// all backends:
//
//  * Elementwise maps (Add/Sub/Mul/Div/Scale/Offset/Neg/Sqrt/Axpy/
//    AddInPlace) perform the same IEEE-754 double operation per element in
//    every backend. AVX2 mul/add/div/sqrt are IEEE-exact and fused
//    multiply-add is never emitted (no fmadd intrinsics here; the build
//    compiles with -ffp-contract=off so the scalar fallback cannot be
//    contracted either). These primitives are therefore *bit-exact* across
//    backends and across the MSOPDS_SIMD switch.
//
//  * Reductions (Dot/RowDots/Sum/MaxAbs) use a fixed 4-lane accumulation
//    order: lane j accumulates elements j, j+4, j+8, ... (the tail of n
//    mod 4 elements lands in lanes 0..r-1), and the four lane partials are
//    folded as (l0 + l1) + (l2 + l3). The scalar fallback implements the
//    *same* 4-lane schedule with four named accumulators, so reductions are
//    also bit-exact across backends for every non-NaN result (which NaN an
//    add of two NaNs returns follows the compiler's operand order, not the
//    source; DESIGN.md §14) — but they differ (by normal ULP-level
//    reassociation) from a naive left-to-right sum. Callers that used to
//    reduce left-to-right get deterministically different low bits the day
//    they switch to these primitives; DESIGN.md §14 records which results
//    changed. Lane order never depends on thread count, so the
//    bit-identical-across-threads contract (§9) is untouched.
//
// Dispatch. The backend is picked once per process:
//   - compile-time: MSOPDS_SIMD=OFF defines MSOPDS_SIMD_DISABLED and
//     removes the vector paths entirely (pure scalar build);
//   - runtime: __builtin_cpu_supports("avx2") gates the x86 path, so a
//     binary built on an AVX2 machine still runs (scalar) on older CPUs;
//   - env override: MSOPDS_SIMD=0 in the environment forces the scalar
//     fallback at startup even in a vector-enabled build (1 keeps the
//     probe; any other value warns and keeps it, util/env.h).
//
// Vector functions carry per-function target attributes instead of a
// global -mavx2 so enabling SIMD cannot change code generation (and hence
// numerics) anywhere outside this header.
//
// Quantized-serving kernel (DESIGN.md §15). DotI8 is pure int32 integer
// arithmetic — integer addition is associative, so it is bit-exact across
// backends by construction (the AVX2 path widens int8 pairs to int16 and
// uses the madd lane pipeline; NEON uses the widening-multiply path).

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/env.h"

#if !defined(MSOPDS_SIMD_DISABLED) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(_M_X64))
#define MSOPDS_SIMD_X86 1
#include <immintrin.h>
#elif !defined(MSOPDS_SIMD_DISABLED) && defined(__GNUC__) && \
    defined(__aarch64__)
#define MSOPDS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace msopds {
namespace simd {

enum class Backend {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

namespace internal {

// Out of line and cold: it runs once per process, but each dispatch
// wrapper's first-use path would otherwise inline it into every hot loop
// that calls a primitive per row or per item (int8 top-K calls DotI8 per
// item). Inlined into such a loop, its EnvSwitch call changed the loop's
// register allocation: a per-item Dot loop on the serve-topk shape ran
// 10-15% slower (one thread, 4-core x86 VM, gcc 12.2).
__attribute__((noinline, cold)) inline Backend ProbeBackend() {
  if (!EnvSwitch("MSOPDS_SIMD", true)) return Backend::kScalar;
#if defined(MSOPDS_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
  return Backend::kScalar;
#elif defined(MSOPDS_SIMD_NEON)
  return Backend::kNeon;  // Baseline AArch64 always has Advanced SIMD.
#else
  return Backend::kScalar;
#endif
}

inline Backend& ActiveBackendSlot() {
  static Backend backend = ProbeBackend();
  return backend;
}

}  // namespace internal

/// Backend picked at process start (compile switch, CPUID probe, and the
/// MSOPDS_SIMD=0 env override). Stable for the process lifetime, except
/// under the test-only override below.
inline Backend ActiveBackend() { return internal::ActiveBackendSlot(); }

namespace internal {

/// Test-only A/B switch: forces the dispatch wrappers onto `backend` and
/// returns the previous choice so parity tests can compare the vector
/// and scalar paths inside one process. Only kScalar and the probed
/// backend are safe choices (forcing a vector backend the CPU lacks is
/// an illegal-instruction crash). Call from single-threaded test code,
/// never in parallel regions.
inline Backend SetBackendForTesting(Backend backend) {
  Backend previous = ActiveBackendSlot();
  ActiveBackendSlot() = backend;
  return previous;
}

}  // namespace internal

inline const char* BackendName() {
  switch (ActiveBackend()) {
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
    case Backend::kScalar:
      return "scalar";
  }
  return "scalar";
}

/// True when a vector backend (not the scalar fallback) is active.
inline bool VectorActive() { return ActiveBackend() != Backend::kScalar; }

// ---------------------------------------------------------------------------
// Scalar fallback. The reference semantics: reductions use the same 4-lane
// schedule as the vector paths, with four named accumulators.
//
// Codegen for the reference is pinned to plain scalar instructions. GCC's
// autovectorizer would otherwise turn these loops into 2-lane SSE code —
// the bits stay identical (the arithmetic DAG is unchanged), but then
// "scalar" silently means "whatever the autovectorizer emitted", which
// varies with -O level and compiler, and the scalar-vs-vector table in
// BENCH_simd.json stops measuring the hand-written backends against the
// reference. Only codegen is affected; every parity test passes with or
// without the pin.
// ---------------------------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#define MSOPDS_SCALAR_NOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define MSOPDS_SCALAR_NOVEC
#endif

namespace scalar {

MSOPDS_SCALAR_NOVEC inline double Dot(const double* a, const double* b, int64_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  if (i < n) l0 += a[i] * b[i];
  if (i + 1 < n) l1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) l2 += a[i + 2] * b[i + 2];
  return (l0 + l1) + (l2 + l3);
}

MSOPDS_SCALAR_NOVEC inline void RowDots(const double* a, const double* b,
                                        int64_t k, int64_t m, double* out) {
  for (int64_t j = 0; j < m; ++j) out[j] = Dot(a, b + j * k, k);
}

MSOPDS_SCALAR_NOVEC inline double Sum(const double* a, int64_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += a[i];
    l1 += a[i + 1];
    l2 += a[i + 2];
    l3 += a[i + 3];
  }
  if (i < n) l0 += a[i];
  if (i + 1 < n) l1 += a[i + 1];
  if (i + 2 < n) l2 += a[i + 2];
  return (l0 + l1) + (l2 + l3);
}

MSOPDS_SCALAR_NOVEC inline double MaxAbs(const double* a, int64_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 = std::max(l0, std::fabs(a[i]));
    l1 = std::max(l1, std::fabs(a[i + 1]));
    l2 = std::max(l2, std::fabs(a[i + 2]));
    l3 = std::max(l3, std::fabs(a[i + 3]));
  }
  if (i < n) l0 = std::max(l0, std::fabs(a[i]));
  if (i + 1 < n) l1 = std::max(l1, std::fabs(a[i + 1]));
  if (i + 2 < n) l2 = std::max(l2, std::fabs(a[i + 2]));
  return std::max(std::max(l0, l1), std::max(l2, l3));
}

MSOPDS_SCALAR_NOVEC inline void Axpy(double alpha, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

MSOPDS_SCALAR_NOVEC inline void Axpy4(const double* alpha4, const double* x0,
                                      const double* x1, const double* x2,
                                      const double* x3, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] = (((y[i] + alpha4[0] * x0[i]) + alpha4[1] * x1[i]) +
            alpha4[2] * x2[i]) +
           alpha4[3] * x3[i];
  }
}

MSOPDS_SCALAR_NOVEC inline void AddInPlace(double* y, const double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

MSOPDS_SCALAR_NOVEC inline void Add(const double* a, const double* b, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

MSOPDS_SCALAR_NOVEC inline void Sub(const double* a, const double* b, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

MSOPDS_SCALAR_NOVEC inline void Mul(const double* a, const double* b, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

MSOPDS_SCALAR_NOVEC inline void Div(const double* a, const double* b, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] / b[i];
}

MSOPDS_SCALAR_NOVEC inline void Scale(const double* a, double alpha, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * alpha;
}

MSOPDS_SCALAR_NOVEC inline void Offset(const double* a, double alpha, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + alpha;
}

MSOPDS_SCALAR_NOVEC inline void Neg(const double* a, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = -a[i];
}

MSOPDS_SCALAR_NOVEC inline void Sqrt(const double* a, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::sqrt(a[i]);
}

// Quantized-serving reference kernel. DotI8 is a plain int32 sum —
// integer addition is associative so no lane schedule is needed for
// cross-backend bit parity.

MSOPDS_SCALAR_NOVEC inline int32_t DotI8(const int8_t* a, const int8_t* b,
                                         int64_t n) {
  int32_t sum = 0;
  for (int64_t i = 0; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 backend (x86-64). Per-function target attributes; never fmadd.
//
// The scalar tails after a vector loop count the remaining elements down
// (`for (r = n - i; r > 0; --r, ++i)`) in both vector backends. Given a
// compile-time n, GCC derives a trip count near 2^61 for the plain
// `for (; i < n; ++i)` tail and warns (-Waggressive-loop-optimizations);
// the counted form does the same operations in the same order.
// ---------------------------------------------------------------------------

#if defined(MSOPDS_SIMD_X86)

namespace avx2 {

__attribute__((target("avx2"))) inline double Dot(const double* a,
                                                  const double* b, int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  if (i < n) lanes[0] += a[i] * b[i];
  if (i + 1 < n) lanes[1] += a[i + 1] * b[i + 1];
  if (i + 2 < n) lanes[2] += a[i + 2] * b[i + 2];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// Four outputs per pass when k % 4 == 0: one load of a feeds four
// accumulators, each on Dot's lane schedule. The fold writes Dot's
// (l0 + l1) + (l2 + l3) out for all four at once: unpacklo/unpackhi put
// lanes 0|2 and 1|3 of two accumulators side by side, one add gives both
// accumulators' l0 + l1 and l2 + l3, and a cross-lane add joins the
// halves (not hadd, which states no operand order). Other k, and the
// last m % 4 outputs, take one Dot each.
__attribute__((target("avx2"))) inline void RowDots(const double* a,
                                                    const double* b,
                                                    int64_t k, int64_t m,
                                                    double* out) {
  int64_t j = 0;
  if (k % 4 == 0) {
    for (; j + 4 <= m; j += 4) {
      const double* b0 = b + j * k;
      const double* b1 = b0 + k;
      const double* b2 = b1 + k;
      const double* b3 = b2 + k;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      for (int64_t i = 0; i < k; i += 4) {
        const __m256d va = _mm256_loadu_pd(a + i);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(va, _mm256_loadu_pd(b0 + i)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(va, _mm256_loadu_pd(b1 + i)));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(va, _mm256_loadu_pd(b2 + i)));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(va, _mm256_loadu_pd(b3 + i)));
      }
      // {l0+l1 of acc0, l0+l1 of acc1, l2+l3 of acc0, l2+l3 of acc1}.
      const __m256d s01 = _mm256_add_pd(_mm256_unpacklo_pd(acc0, acc1),
                                        _mm256_unpackhi_pd(acc0, acc1));
      const __m256d s23 = _mm256_add_pd(_mm256_unpacklo_pd(acc2, acc3),
                                        _mm256_unpackhi_pd(acc2, acc3));
      _mm256_storeu_pd(out + j,
                       _mm256_add_pd(_mm256_permute2f128_pd(s01, s23, 0x20),
                                     _mm256_permute2f128_pd(s01, s23, 0x31)));
    }
  }
  for (int64_t r = m - j; r > 0; --r, ++j) out[j] = Dot(a, b + j * k, k);
}

__attribute__((target("avx2"))) inline double Sum(const double* a, int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(a + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  if (i < n) lanes[0] += a[i];
  if (i + 1 < n) lanes[1] += a[i + 1];
  if (i + 2 < n) lanes[2] += a[i + 2];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

__attribute__((target("avx2"))) inline double MaxAbs(const double* a,
                                                     int64_t n) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_max_pd(acc, _mm256_andnot_pd(sign, _mm256_loadu_pd(a + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  if (i < n) lanes[0] = std::max(lanes[0], std::fabs(a[i]));
  if (i + 1 < n) lanes[1] = std::max(lanes[1], std::fabs(a[i + 1]));
  if (i + 2 < n) lanes[2] = std::max(lanes[2], std::fabs(a[i + 2]));
  return std::max(std::max(lanes[0], lanes[1]),
                  std::max(lanes[2], lanes[3]));
}

__attribute__((target("avx2"))) inline void Axpy(double alpha, const double* x,
                                                 double* y, int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vy = _mm256_loadu_pd(y + i);
    const __m256d vx = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) inline void Axpy4(
    const double* alpha4, const double* x0, const double* x1, const double* x2,
    const double* x3, double* y, int64_t n) {
  const __m256d va0 = _mm256_set1_pd(alpha4[0]);
  const __m256d va1 = _mm256_set1_pd(alpha4[1]);
  const __m256d va2 = _mm256_set1_pd(alpha4[2]);
  const __m256d va3 = _mm256_set1_pd(alpha4[3]);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d vy = _mm256_loadu_pd(y + i);
    vy = _mm256_add_pd(vy, _mm256_mul_pd(va0, _mm256_loadu_pd(x0 + i)));
    vy = _mm256_add_pd(vy, _mm256_mul_pd(va1, _mm256_loadu_pd(x1 + i)));
    vy = _mm256_add_pd(vy, _mm256_mul_pd(va2, _mm256_loadu_pd(x2 + i)));
    vy = _mm256_add_pd(vy, _mm256_mul_pd(va3, _mm256_loadu_pd(x3 + i)));
    _mm256_storeu_pd(y + i, vy);
  }
  for (int64_t r = n - i; r > 0; --r, ++i) {
    y[i] = (((y[i] + alpha4[0] * x0[i]) + alpha4[1] * x1[i]) +
            alpha4[2] * x2[i]) +
           alpha4[3] * x3[i];
  }
}

__attribute__((target("avx2"))) inline void AddInPlace(double* y,
                                                       const double* x,
                                                       int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) y[i] += x[i];
}

__attribute__((target("avx2"))) inline void Add(const double* a,
                                                const double* b, double* out,
                                                int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) inline void Sub(const double* a,
                                                const double* b, double* out,
                                                int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] - b[i];
}

__attribute__((target("avx2"))) inline void Mul(const double* a,
                                                const double* b, double* out,
                                                int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] * b[i];
}

__attribute__((target("avx2"))) inline void Div(const double* a,
                                                const double* b, double* out,
                                                int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_div_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] / b[i];
}

__attribute__((target("avx2"))) inline void Scale(const double* a, double alpha,
                                                  double* out, int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), va));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] * alpha;
}

__attribute__((target("avx2"))) inline void Offset(const double* a,
                                                   double alpha, double* out,
                                                   int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(a + i), va));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] + alpha;
}

__attribute__((target("avx2"))) inline void Neg(const double* a, double* out,
                                                int64_t n) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_xor_pd(_mm256_loadu_pd(a + i), sign));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = -a[i];
}

__attribute__((target("avx2"))) inline void Sqrt(const double* a, double* out,
                                                 int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(_mm256_loadu_pd(a + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = std::sqrt(a[i]);
}

// int8 dot via the 16-wide madd lane pipeline: widen each int8 half-load
// to int16 (cvtepi8_epi16), multiply-accumulate adjacent pairs into
// int32 lanes (madd_epi16 — exact: |a*b| ≤ 127*127 and the pairwise sum
// fits int32), then fold the eight int32 lanes. Integer addition is
// associative, so any fold order matches the scalar reference bit for
// bit. Accumulating at most 2*127*127 per lane per step bounds the
// int32 accumulator safely for any dim the serve path uses (overflow
// would need n > 2^31 / 16129 ≈ 133k elements per row).
__attribute__((target("avx2"))) inline int32_t DotI8(const int8_t* a,
                                                     const int8_t* b,
                                                     int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vb = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
  }
  alignas(32) int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int32_t sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  for (int64_t r = n - i; r > 0; --r, ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

}  // namespace avx2

#endif  // MSOPDS_SIMD_X86

// ---------------------------------------------------------------------------
// NEON backend (AArch64). Two 128-bit registers emulate the 4-lane schedule
// (lanes {0,1} and {2,3}); never vfma.
// ---------------------------------------------------------------------------

#if defined(MSOPDS_SIMD_NEON)

namespace neon {

inline double Dot(const double* a, const double* b, int64_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    acc23 = vaddq_f64(acc23,
                      vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
  }
  double lanes[4] = {vgetq_lane_f64(acc01, 0), vgetq_lane_f64(acc01, 1),
                     vgetq_lane_f64(acc23, 0), vgetq_lane_f64(acc23, 1)};
  if (i < n) lanes[0] += a[i] * b[i];
  if (i + 1 < n) lanes[1] += a[i + 1] * b[i + 1];
  if (i + 2 < n) lanes[2] += a[i + 2] * b[i + 2];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

inline void RowDots(const double* a, const double* b, int64_t k, int64_t m,
                    double* out) {
  for (int64_t j = 0; j < m; ++j) out[j] = Dot(a, b + j * k, k);
}

inline double Sum(const double* a, int64_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc01 = vaddq_f64(acc01, vld1q_f64(a + i));
    acc23 = vaddq_f64(acc23, vld1q_f64(a + i + 2));
  }
  double lanes[4] = {vgetq_lane_f64(acc01, 0), vgetq_lane_f64(acc01, 1),
                     vgetq_lane_f64(acc23, 0), vgetq_lane_f64(acc23, 1)};
  if (i < n) lanes[0] += a[i];
  if (i + 1 < n) lanes[1] += a[i + 1];
  if (i + 2 < n) lanes[2] += a[i + 2];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

inline double MaxAbs(const double* a, int64_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc01 = vmaxq_f64(acc01, vabsq_f64(vld1q_f64(a + i)));
    acc23 = vmaxq_f64(acc23, vabsq_f64(vld1q_f64(a + i + 2)));
  }
  double lanes[4] = {vgetq_lane_f64(acc01, 0), vgetq_lane_f64(acc01, 1),
                     vgetq_lane_f64(acc23, 0), vgetq_lane_f64(acc23, 1)};
  if (i < n) lanes[0] = std::max(lanes[0], std::fabs(a[i]));
  if (i + 1 < n) lanes[1] = std::max(lanes[1], std::fabs(a[i + 1]));
  if (i + 2 < n) lanes[2] = std::max(lanes[2], std::fabs(a[i + 2]));
  return std::max(std::max(lanes[0], lanes[1]),
                  std::max(lanes[2], lanes[3]));
}

inline void Axpy(double alpha, const double* x, double* y, int64_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i,
              vaddq_f64(vld1q_f64(y + i), vmulq_f64(va, vld1q_f64(x + i))));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) y[i] += alpha * x[i];
}

inline void Axpy4(const double* alpha4, const double* x0, const double* x1,
                  const double* x2, const double* x3, double* y, int64_t n) {
  const float64x2_t va0 = vdupq_n_f64(alpha4[0]);
  const float64x2_t va1 = vdupq_n_f64(alpha4[1]);
  const float64x2_t va2 = vdupq_n_f64(alpha4[2]);
  const float64x2_t va3 = vdupq_n_f64(alpha4[3]);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    float64x2_t vy = vld1q_f64(y + i);
    vy = vaddq_f64(vy, vmulq_f64(va0, vld1q_f64(x0 + i)));
    vy = vaddq_f64(vy, vmulq_f64(va1, vld1q_f64(x1 + i)));
    vy = vaddq_f64(vy, vmulq_f64(va2, vld1q_f64(x2 + i)));
    vy = vaddq_f64(vy, vmulq_f64(va3, vld1q_f64(x3 + i)));
    vst1q_f64(y + i, vy);
  }
  for (int64_t r = n - i; r > 0; --r, ++i) {
    y[i] = (((y[i] + alpha4[0] * x0[i]) + alpha4[1] * x1[i]) +
            alpha4[2] * x2[i]) +
           alpha4[3] * x3[i];
  }
}

inline void AddInPlace(double* y, const double* x, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) y[i] += x[i];
}

inline void Add(const double* a, const double* b, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vaddq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] + b[i];
}

inline void Sub(const double* a, const double* b, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] - b[i];
}

inline void Mul(const double* a, const double* b, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] * b[i];
}

inline void Div(const double* a, const double* b, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vdivq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] / b[i];
}

inline void Scale(const double* a, double alpha, double* out, int64_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vmulq_f64(vld1q_f64(a + i), va));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] * alpha;
}

inline void Offset(const double* a, double alpha, double* out, int64_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vaddq_f64(vld1q_f64(a + i), va));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = a[i] + alpha;
}

inline void Neg(const double* a, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vnegq_f64(vld1q_f64(a + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = -a[i];
}

inline void Sqrt(const double* a, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vsqrtq_f64(vld1q_f64(a + i)));
  }
  for (int64_t r = n - i; r > 0; --r, ++i) out[i] = std::sqrt(a[i]);
}

// int8 dot via the widening-multiply path (baseline AArch64; vdotq
// needs the optional +dotprod feature, and the widening form is exact
// everywhere): vmull_s8 widens 8 products to int16, vpadalq_s16
// pairwise-accumulates into int32 lanes, vaddvq_s32 folds. Integer
// addition is associative, so the bits match the scalar reference.
inline int32_t DotI8(const int8_t* a, const int8_t* b, int64_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const int8x16_t va = vld1q_s8(a + i);
    const int8x16_t vb = vld1q_s8(b + i);
    acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(va), vget_low_s8(vb)));
    acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(va), vget_high_s8(vb)));
  }
  int32_t sum = vaddvq_s32(acc);
  for (int64_t r = n - i; r > 0; --r, ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

}  // namespace neon

#endif  // MSOPDS_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch wrappers: the API the kernels call.
// ---------------------------------------------------------------------------

#if defined(MSOPDS_SIMD_X86)
#define MSOPDS_SIMD_DISPATCH(fn, ...)                                 \
  do {                                                                \
    if (ActiveBackend() == Backend::kAvx2) return avx2::fn(__VA_ARGS__); \
    return scalar::fn(__VA_ARGS__);                                   \
  } while (0)
#elif defined(MSOPDS_SIMD_NEON)
#define MSOPDS_SIMD_DISPATCH(fn, ...)                                 \
  do {                                                                \
    if (ActiveBackend() == Backend::kNeon) return neon::fn(__VA_ARGS__); \
    return scalar::fn(__VA_ARGS__);                                   \
  } while (0)
#else
#define MSOPDS_SIMD_DISPATCH(fn, ...) return scalar::fn(__VA_ARGS__)
#endif

/// sum_j a[j]*b[j], fixed 4-lane order (see header comment).
inline double Dot(const double* a, const double* b, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Dot, a, b, n);
}

/// out[j] = Dot(a, b + j*k, k) for every j < m: one row of k elements
/// against m contiguous rows of b. Bit-equal to m Dot calls in every
/// backend; the row kernel of MatMulNT.
inline void RowDots(const double* a, const double* b, int64_t k, int64_t m,
                    double* out) {
  MSOPDS_SIMD_DISPATCH(RowDots, a, b, k, m, out);
}

/// sum_j a[j], fixed 4-lane order.
inline double Sum(const double* a, int64_t n) { MSOPDS_SIMD_DISPATCH(Sum, a, n); }

/// max_j |a[j]| (0 for empty spans), fixed 4-lane order.
inline double MaxAbs(const double* a, int64_t n) {
  MSOPDS_SIMD_DISPATCH(MaxAbs, a, n);
}

/// y[j] += alpha * x[j]. Bit-exact across backends.
inline void Axpy(double alpha, const double* x, double* y, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Axpy, alpha, x, y, n);
}

/// Four fused axpy steps against four independent rows:
///   y[j] = (((y[j] + a4[0]*x0[j]) + a4[1]*x1[j]) + a4[2]*x2[j])
///          + a4[3]*x3[j]
/// The per-element association is identical to four sequential Axpy
/// calls (intermediate stores never change IEEE results), so this is
/// bit-exact with the unfused form and across backends. It exists
/// because the fused form touches y once instead of four times — the
/// matmul k-loop is load/store bound on y otherwise. The rows are
/// independent pointers (not a stride) so callers can fuse the next
/// four *contributing* k-steps even when zero-skip makes them
/// non-adjacent.
inline void Axpy4(const double* alpha4, const double* x0, const double* x1,
                  const double* x2, const double* x3, double* y, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Axpy4, alpha4, x0, x1, x2, x3, y, n);
}

/// y[j] += x[j]. Bit-exact across backends.
inline void AddInPlace(double* y, const double* x, int64_t n) {
  MSOPDS_SIMD_DISPATCH(AddInPlace, y, x, n);
}

/// out[j] = a[j] + b[j]. Bit-exact across backends.
inline void Add(const double* a, const double* b, double* out, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Add, a, b, out, n);
}

/// out[j] = a[j] - b[j]. Bit-exact across backends.
inline void Sub(const double* a, const double* b, double* out, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Sub, a, b, out, n);
}

/// out[j] = a[j] * b[j]. Bit-exact across backends.
inline void Mul(const double* a, const double* b, double* out, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Mul, a, b, out, n);
}

/// out[j] = a[j] / b[j]. Bit-exact across backends.
inline void Div(const double* a, const double* b, double* out, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Div, a, b, out, n);
}

/// out[j] = a[j] * alpha. Bit-exact across backends.
inline void Scale(const double* a, double alpha, double* out, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Scale, a, alpha, out, n);
}

/// out[j] = a[j] + alpha. Bit-exact across backends.
inline void Offset(const double* a, double alpha, double* out, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Offset, a, alpha, out, n);
}

/// out[j] = -a[j]. Bit-exact across backends.
inline void Neg(const double* a, double* out, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Neg, a, out, n);
}

/// out[j] = sqrt(a[j]). IEEE sqrt is exact, so bit-exact across backends.
inline void Sqrt(const double* a, double* out, int64_t n) {
  MSOPDS_SIMD_DISPATCH(Sqrt, a, out, n);
}

/// sum_j (int32)a[j] * (int32)b[j] over int8 rows. Pure integer
/// arithmetic: bit-exact across backends, threads, and the MSOPDS_SIMD
/// switch by construction. Callers must keep n below ~133k elements so
/// the int32 accumulator cannot wrap (serve rows are ≤ a few hundred).
inline int32_t DotI8(const int8_t* a, const int8_t* b, int64_t n) {
  MSOPDS_SIMD_DISPATCH(DotI8, a, b, n);
}

#undef MSOPDS_SIMD_DISPATCH

}  // namespace simd
}  // namespace msopds

#endif  // MSOPDS_TENSOR_SIMD_H_
