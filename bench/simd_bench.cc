// Scalar-vs-SIMD A/B benches (DESIGN.md §14).
//
// Every case runs twice over identical inputs, calling the kernels
// directly on the benchmark's thread: once with the scalar reference
// backend forced and once on the probed vector backend ("/simd:0" vs
// "/simd:1"). The kernels are bit-identical across backends, so the
// pairs measure pure speed, never accuracy. After the console output
// the main (bench/ab_bench.h) pairs the rows and writes BENCH_simd.json
// in the working directory: machine info plus one entry per pair.
// tools/bench_snapshot.sh commits it from the repo root.
//
// Seeds are pinned so the committed snapshot is reproducible.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench/ab_bench.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace msopds {
namespace bench {
namespace {

Tensor RandomTensor(std::vector<int64_t> shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = rng->Uniform(-1, 1);
  return t;
}

// The backend the runtime probe picked at startup, before any case
// forces the scalar side of a comparison.
simd::Backend ProbedBackend() {
  static const simd::Backend probed = simd::ActiveBackend();
  return probed;
}

// Forces the "/simd:0|1" side of a pair for the duration of one case.
class ScopedBackend {
 public:
  explicit ScopedBackend(bool vector_side)
      : previous_(simd::internal::SetBackendForTesting(
            vector_side ? ProbedBackend() : simd::Backend::kScalar)) {}
  ~ScopedBackend() { simd::internal::SetBackendForTesting(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  simd::Backend previous_;
};

// --- scalar-vs-SIMD kernel pairs -------------------------------------------

// The forward MatMul hot loop exactly as ops.cc runs it: k-blocked row
// accumulation with contributing k-steps fused four at a time through
// simd::Axpy4, stragglers flushed through Axpy.
void TiledAccumulate(const double* pa, const double* pb, double* po,
                     int64_t n, int64_t k, int64_t m, bool transpose_a) {
  constexpr int64_t kKBlock = 32;
  for (int64_t kb = 0; kb < k; kb += kKBlock) {
    const int64_t kb_end = std::min(kb + kKBlock, k);
    for (int64_t i = 0; i < n; ++i) {
      double* orow = po + i * m;
      double coeff[4];
      const double* rows[4];
      int pending = 0;
      for (int64_t kk = kb; kk < kb_end; ++kk) {
        const double aik = transpose_a ? pa[kk * n + i] : pa[i * k + kk];
        if (aik == 0.0) continue;
        coeff[pending] = aik;
        rows[pending] = pb + kk * m;
        if (++pending == 4) {
          simd::Axpy4(coeff, rows[0], rows[1], rows[2], rows[3], orow, m);
          pending = 0;
        }
      }
      for (int p = 0; p < pending; ++p) {
        simd::Axpy(coeff[p], rows[p], orow, m);
      }
    }
  }
}

void BM_SimdMatMulForward(benchmark::State& state) {
  // The MatMul forward kernel in isolation (ops.cc). The op adds graph
  // and arena bookkeeping identical on both backends; this row measures
  // the kernel they differ in.
  const int64_t n = state.range(0);
  ScopedBackend backend(state.range(1) != 0);
  Rng rng(1);
  const Tensor a = RandomTensor({n, n}, &rng);
  const Tensor b = RandomTensor({n, n}, &rng);
  std::vector<double> out(static_cast<size_t>(n * n));
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0);
    TiledAccumulate(a.data(), b.data(), out.data(), n, n, n,
                    /*transpose_a=*/false);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_SimdMatMulForward)
    ->ArgNames({"n", "simd"})
    ->Args({128, 0})
    ->Args({128, 1});

void BM_SimdMatMulBackward(benchmark::State& state) {
  // The two backward kernels in isolation (ops.cc): grad_a = g·Bᵀ via
  // MatMulNT's row kernel (simd::RowDots, one call per output row),
  // grad_b = Aᵀ·g via the MatMulTN fused accumulation kernel.
  const int64_t n = state.range(0);
  ScopedBackend backend(state.range(1) != 0);
  Rng rng(2);
  const Tensor a = RandomTensor({n, n}, &rng);
  const Tensor b = RandomTensor({n, n}, &rng);
  const Tensor g = RandomTensor({n, n}, &rng);
  std::vector<double> grad_a(static_cast<size_t>(n * n));
  std::vector<double> grad_b(static_cast<size_t>(n * n));
  for (auto _ : state) {
    for (int64_t i = 0; i < n; ++i) {
      simd::RowDots(g.data() + i * n, b.data(), n, n, grad_a.data() + i * n);
    }
    std::fill(grad_b.begin(), grad_b.end(), 0.0);
    TiledAccumulate(a.data(), g.data(), grad_b.data(), n, n, n,
                    /*transpose_a=*/true);
    benchmark::DoNotOptimize(grad_a.data());
    benchmark::DoNotOptimize(grad_b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_SimdMatMulBackward)
    ->ArgNames({"n", "simd"})
    ->Args({96, 0})
    ->Args({96, 1});

void BM_SimdSpMMRowAccumulate(benchmark::State& state) {
  // The SpMM forward hot loop in isolation (ops.cc): scaled-row
  // accumulations into destination rows, with runs of same-destination
  // edges fused four at a time through simd::Axpy4 exactly as the
  // kernel does. Edges are grouped by destination as real rating lists
  // are. The op-level SpMM adds graph bookkeeping on top; this row
  // measures the kernel the backends actually differ in.
  const int64_t nodes = state.range(0);
  const int64_t per_node = 40;
  const int64_t edges = nodes * per_node;
  const int64_t dim = 64;
  ScopedBackend backend(state.range(1) != 0);
  Rng rng(3);
  std::vector<int64_t> dst, src;
  for (int64_t e = 0; e < edges; ++e) {
    dst.push_back(e / per_node);
    src.push_back(rng.UniformInt(nodes));
  }
  const Tensor w = RandomTensor({edges}, &rng);
  const Tensor x = RandomTensor({nodes, dim}, &rng);
  std::vector<double> out(static_cast<size_t>(nodes * dim), 0.0);
  for (auto _ : state) {
    int64_t e = 0;
    while (e < edges) {
      const int64_t row = dst[static_cast<size_t>(e)];
      double* orow = out.data() + row * dim;
      double coeff[4];
      const double* rows[4];
      int pending = 0;
      while (e < edges && dst[static_cast<size_t>(e)] == row) {
        coeff[pending] = w.data()[e];
        rows[pending] = x.data() + src[static_cast<size_t>(e)] * dim;
        ++e;
        if (++pending == 4) {
          simd::Axpy4(coeff, rows[0], rows[1], rows[2], rows[3], orow, dim);
          pending = 0;
        }
      }
      for (int p = 0; p < pending; ++p) {
        simd::Axpy(coeff[p], rows[p], orow, dim);
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * edges * dim);
}
BENCHMARK(BM_SimdSpMMRowAccumulate)
    ->ArgNames({"n", "simd"})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_SimdElementwiseChain(benchmark::State& state) {
  // L1-resident buffers: the chain measures lane throughput, not DRAM.
  const int64_t n = 1 << 12;
  ScopedBackend backend(state.range(0) != 0);
  Rng rng(4);
  const Tensor a = RandomTensor({n}, &rng);
  const Tensor b = RandomTensor({n}, &rng);
  std::vector<double> t1(static_cast<size_t>(n));
  std::vector<double> t2(static_cast<size_t>(n));
  std::vector<double> out(static_cast<size_t>(n));
  for (auto _ : state) {
    simd::Add(a.data(), b.data(), t1.data(), n);
    simd::Mul(t1.data(), a.data(), t2.data(), n);
    simd::Scale(t2.data(), 0.5, out.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * 3);
}
BENCHMARK(BM_SimdElementwiseChain)->ArgNames({"simd"})->Arg(0)->Arg(1);

void BM_SimdServeScoreRow(benchmark::State& state) {
  // The fp64 serve-path dot: one user factor row against a tile of item
  // factor rows in one RowDots call (serve/model_snapshot.h ScoreItems).
  const int64_t items = 512;
  const int64_t dim = 64;
  ScopedBackend backend(state.range(0) != 0);
  Rng rng(5);
  const Tensor user = RandomTensor({dim}, &rng);
  const Tensor factors = RandomTensor({items, dim}, &rng);
  std::vector<double> scores(static_cast<size_t>(items));
  for (auto _ : state) {
    simd::RowDots(user.data(), factors.data(), dim, items, scores.data());
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * items * dim);
}
BENCHMARK(BM_SimdServeScoreRow)->ArgNames({"simd"})->Arg(0)->Arg(1);

}  // namespace
}  // namespace bench
}  // namespace msopds

MSOPDS_AB_BENCH_MAIN("BENCH_simd.json");
