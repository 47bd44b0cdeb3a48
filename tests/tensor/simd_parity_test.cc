// Scalar-vs-vector bit-parity for the SIMD kernel backends (DESIGN.md
// §14): every dispatch wrapper in tensor/simd.h must produce the exact
// bits of the scalar reference path, because both implement one fixed
// 4-lane schedule. The sweep covers remainder-lane sizes (n mod 8 in
// 1..7) where the tail handling lives, and every op-registry example
// end-to-end (forward + gradients). On machines where the probe picks
// the scalar backend these tests degenerate to scalar-vs-scalar and
// pass vacuously — the CI matrix runs them on AVX2 hardware.

#include "tensor/simd.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/grad.h"
#include "tensor/ops.h"
#include "tensor/verify.h"

namespace msopds {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  if (!a.SameShape(b)) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

// Deterministic non-trivial fill with mixed signs and magnitudes.
std::vector<double> TestValues(int64_t n, uint64_t salt) {
  std::vector<double> values(static_cast<size_t>(n));
  uint64_t state = salt * 2654435761u + 12345u;
  for (int64_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double unit =
        static_cast<double>(state >> 11) / 9007199254740992.0;  // [0, 1)
    values[static_cast<size_t>(i)] = (unit - 0.5) * 3.7;
  }
  return values;
}

// Strictly positive variant (Div / Sqrt operands).
std::vector<double> PositiveValues(int64_t n, uint64_t salt) {
  std::vector<double> values = TestValues(n, salt);
  for (double& v : values) v = 0.25 + (v < 0.0 ? -v : v);
  return values;
}

class ScopedScalarBackend {
 public:
  ScopedScalarBackend()
      : previous_(
            simd::internal::SetBackendForTesting(simd::Backend::kScalar)) {}
  ~ScopedScalarBackend() { simd::internal::SetBackendForTesting(previous_); }
  ScopedScalarBackend(const ScopedScalarBackend&) = delete;
  ScopedScalarBackend& operator=(const ScopedScalarBackend&) = delete;

 private:
  simd::Backend previous_;
};

// Sizes straddling the vector width: every remainder class mod 8 at
// several magnitudes, including grain-sized buffers.
std::vector<int64_t> ParitySizes() {
  std::vector<int64_t> sizes;
  for (int64_t base : {int64_t{0}, int64_t{8}, int64_t{16}, int64_t{64},
                       int64_t{4096}}) {
    for (int64_t r = 0; r < 8; ++r) {
      if (base + r > 0) sizes.push_back(base + r);
    }
  }
  return sizes;
}

TEST(SimdParityTest, ReductionsMatchScalarReferenceBitForBit) {
  for (int64_t n : ParitySizes()) {
    const std::vector<double> a = TestValues(n, 1);
    const std::vector<double> b = TestValues(n, 2);
    EXPECT_TRUE(BitEqual(simd::Dot(a.data(), b.data(), n),
                         simd::scalar::Dot(a.data(), b.data(), n)))
        << "Dot n=" << n;
    EXPECT_TRUE(BitEqual(simd::Sum(a.data(), n), simd::scalar::Sum(a.data(), n)))
        << "Sum n=" << n;
    EXPECT_TRUE(BitEqual(simd::MaxAbs(a.data(), n),
                         simd::scalar::MaxAbs(a.data(), n)))
        << "MaxAbs n=" << n;
  }
}

TEST(SimdParityTest, ElementwiseMapsMatchScalarReferenceBitForBit) {
  for (int64_t n : ParitySizes()) {
    const std::vector<double> a = TestValues(n, 3);
    const std::vector<double> b = PositiveValues(n, 4);
    std::vector<double> out_vector(static_cast<size_t>(n));
    std::vector<double> out_scalar(static_cast<size_t>(n));

    simd::Add(a.data(), b.data(), out_vector.data(), n);
    simd::scalar::Add(a.data(), b.data(), out_scalar.data(), n);
    EXPECT_TRUE(BitEqual(out_vector, out_scalar)) << "Add n=" << n;

    simd::Sub(a.data(), b.data(), out_vector.data(), n);
    simd::scalar::Sub(a.data(), b.data(), out_scalar.data(), n);
    EXPECT_TRUE(BitEqual(out_vector, out_scalar)) << "Sub n=" << n;

    simd::Mul(a.data(), b.data(), out_vector.data(), n);
    simd::scalar::Mul(a.data(), b.data(), out_scalar.data(), n);
    EXPECT_TRUE(BitEqual(out_vector, out_scalar)) << "Mul n=" << n;

    simd::Div(a.data(), b.data(), out_vector.data(), n);
    simd::scalar::Div(a.data(), b.data(), out_scalar.data(), n);
    EXPECT_TRUE(BitEqual(out_vector, out_scalar)) << "Div n=" << n;

    simd::Scale(a.data(), 1.7, out_vector.data(), n);
    simd::scalar::Scale(a.data(), 1.7, out_scalar.data(), n);
    EXPECT_TRUE(BitEqual(out_vector, out_scalar)) << "Scale n=" << n;

    simd::Offset(a.data(), -0.9, out_vector.data(), n);
    simd::scalar::Offset(a.data(), -0.9, out_scalar.data(), n);
    EXPECT_TRUE(BitEqual(out_vector, out_scalar)) << "Offset n=" << n;

    simd::Neg(a.data(), out_vector.data(), n);
    simd::scalar::Neg(a.data(), out_scalar.data(), n);
    EXPECT_TRUE(BitEqual(out_vector, out_scalar)) << "Neg n=" << n;

    simd::Sqrt(b.data(), out_vector.data(), n);
    simd::scalar::Sqrt(b.data(), out_scalar.data(), n);
    EXPECT_TRUE(BitEqual(out_vector, out_scalar)) << "Sqrt n=" << n;

    std::vector<double> acc_vector = TestValues(n, 5);
    std::vector<double> acc_scalar = acc_vector;
    simd::Axpy(0.31, a.data(), acc_vector.data(), n);
    simd::scalar::Axpy(0.31, a.data(), acc_scalar.data(), n);
    EXPECT_TRUE(BitEqual(acc_vector, acc_scalar)) << "Axpy n=" << n;

    simd::AddInPlace(acc_vector.data(), b.data(), n);
    simd::scalar::AddInPlace(acc_scalar.data(), b.data(), n);
    EXPECT_TRUE(BitEqual(acc_vector, acc_scalar)) << "AddInPlace n=" << n;

    // Axpy4 parity, plus its documented contract: bit-identical to the
    // four sequential Axpy calls it fuses.
    const std::vector<double> x1 = TestValues(n, 6);
    const std::vector<double> x2 = TestValues(n, 7);
    const std::vector<double> x3 = PositiveValues(n, 8);
    const double coeff[4] = {0.31, -1.25, 0.0078125, 3.5};
    std::vector<double> fused_vector = TestValues(n, 9);
    std::vector<double> fused_scalar = fused_vector;
    std::vector<double> sequential = fused_vector;
    simd::Axpy4(coeff, a.data(), x1.data(), x2.data(), x3.data(),
                fused_vector.data(), n);
    simd::scalar::Axpy4(coeff, a.data(), x1.data(), x2.data(), x3.data(),
                        fused_scalar.data(), n);
    EXPECT_TRUE(BitEqual(fused_vector, fused_scalar)) << "Axpy4 n=" << n;
    simd::scalar::Axpy(coeff[0], a.data(), sequential.data(), n);
    simd::scalar::Axpy(coeff[1], x1.data(), sequential.data(), n);
    simd::scalar::Axpy(coeff[2], x2.data(), sequential.data(), n);
    simd::scalar::Axpy(coeff[3], x3.data(), sequential.data(), n);
    EXPECT_TRUE(BitEqual(fused_vector, sequential))
        << "Axpy4 vs sequential Axpy n=" << n;
  }
}

// RowDots against its naive twin, m simd::Dot calls, and against the
// scalar reference's RowDots. k in 0..12 and m in 0..9 cover every
// remainder of 4 for both, so the AVX2 four-output pass, its per-output
// fallback for k % 4 != 0 and its m tail all run. The special pass
// mixes signed zeros, infinities and NaNs of both signs into both
// operands.
//
// Every result must match bit for bit, signed zeros and infinities
// included, except that a NaN need only meet a NaN. Which NaN an add of
// two NaNs returns is its first operand on x86, and GCC treats IEEE
// addition as commutative: it swaps the operands of a scalar `+` and of
// _mm256_add_pd (a vector `+` in avxintrin.h) as register allocation
// suits it. So no source order pins the sign of such a NaN: built with
// gcc 12.2 at -O3, scalar::Dot called directly and scalar::Dot inlined
// into scalar::RowDots return opposite signs for {+NaN, -NaN} in lanes 0
// and 1 at k = 3, and avx2::Dot and scalar::Dot disagree the same way
// at k = 5.
bool SameDot(double got, double want) {
  return std::isnan(want) ? std::isnan(got) : BitEqual(got, want);
}

::testing::AssertionResult SameDots(const std::vector<double>& got,
                                    const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t j = 0; j < got.size(); ++j) {
    if (!SameDot(got[j], want[j])) {
      return ::testing::AssertionFailure()
             << "output " << j << ": " << got[j] << " vs " << want[j];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SimdParityTest, RowDotsMatchPerRowDot) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0, -0.0, inf, -inf, nan, -nan};
  for (const bool with_specials : {false, true}) {
    for (int64_t k = 0; k <= 12; ++k) {
      for (int64_t m = 0; m <= 9; ++m) {
        std::vector<double> a = TestValues(k, 10 + static_cast<uint64_t>(k));
        std::vector<double> b =
            TestValues(k * m, 30 + static_cast<uint64_t>(m));
        if (with_specials) {
          size_t next = static_cast<size_t>(k + m);
          for (size_t i = 0; i < a.size(); i += 3) a[i] = specials[next++ % 6];
          for (size_t i = 1; i < b.size(); i += 4) b[i] = specials[next++ % 6];
        }
        std::vector<double> rows(static_cast<size_t>(m));
        std::vector<double> dots(static_cast<size_t>(m));
        std::vector<double> reference(static_cast<size_t>(m));
        simd::RowDots(a.data(), b.data(), k, m, rows.data());
        for (int64_t j = 0; j < m; ++j) {
          dots[static_cast<size_t>(j)] =
              simd::Dot(a.data(), b.data() + j * k, k);
        }
        simd::scalar::RowDots(a.data(), b.data(), k, m, reference.data());
        EXPECT_TRUE(SameDots(rows, dots))
            << "k=" << k << " m=" << m << " specials=" << with_specials;
        EXPECT_TRUE(SameDots(rows, reference))
            << "k=" << k << " m=" << m << " specials=" << with_specials;
      }
    }
  }
}

// One registry example evaluated end-to-end: forward value plus the
// gradient of every parameter.
struct ExampleResult {
  Tensor output;
  std::vector<Tensor> gradients;
};

ExampleResult EvalExample(const OpSpec& spec) {
  const GradcheckCase c = spec.example();
  std::vector<Variable> params;
  params.reserve(c.points.size());
  for (const Tensor& p : c.points) params.push_back(Param(p.Clone()));
  Variable out = c.fn(params);
  ExampleResult result;
  result.gradients = GradValues(out, params);
  result.output = out.value();
  return result;
}

TEST(SimdParityTest, EveryRegistryExampleMatchesScalarBackendBitForBit) {
  int checked = 0;
  for (const OpSpec& spec : OpRegistry()) {
    if (!spec.example) continue;
    const ExampleResult active = EvalExample(spec);
    ExampleResult scalar;
    {
      ScopedScalarBackend force_scalar;
      scalar = EvalExample(spec);
    }
    EXPECT_TRUE(BitEqual(active.output, scalar.output))
        << spec.name << " forward differs between backends";
    ASSERT_EQ(active.gradients.size(), scalar.gradients.size()) << spec.name;
    for (size_t i = 0; i < active.gradients.size(); ++i) {
      EXPECT_TRUE(BitEqual(active.gradients[i], scalar.gradients[i]))
          << spec.name << " gradient " << i << " differs between backends";
    }
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

TEST(SimdParityTest, RemainderLaneGraphsMatchScalarBackendBitForBit) {
  for (int64_t r = 1; r <= 7; ++r) {
    const int64_t n = 8 + r;
    const Tensor ta = Tensor::FromVector(TestValues(n, 6));
    const Tensor tb = Tensor::FromVector(PositiveValues(n, 7));
    const auto run = [&]() {
      Variable a = Param(ta.Clone());
      Variable b = Param(tb.Clone());
      Variable loss = Sum(Mul(Div(a, b), Add(a, b)));
      ExampleResult result;
      result.gradients = GradValues(loss, {a, b});
      result.output = loss.value();
      return result;
    };
    const ExampleResult active = run();
    ExampleResult scalar;
    {
      ScopedScalarBackend force_scalar;
      scalar = run();
    }
    EXPECT_TRUE(BitEqual(active.output, scalar.output)) << "n=" << n;
    for (size_t i = 0; i < active.gradients.size(); ++i) {
      EXPECT_TRUE(BitEqual(active.gradients[i], scalar.gradients[i]))
          << "n=" << n << " grad " << i;
    }
  }
}

TEST(SimdParityTest, BackendNameIsConsistentWithActiveBackend) {
  const simd::Backend backend = simd::ActiveBackend();
  const std::string name = simd::BackendName();
  if (backend == simd::Backend::kScalar) {
    EXPECT_EQ(name, "scalar");
    EXPECT_FALSE(simd::VectorActive());
  } else {
    EXPECT_TRUE(name == "avx2" || name == "neon") << name;
    EXPECT_TRUE(simd::VectorActive());
  }
}

}  // namespace
}  // namespace msopds
