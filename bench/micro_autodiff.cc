// Micro-benchmarks of the autodiff substrate and the conjugate-gradient
// solver: the kernels whose cost dominates MSOPDS planning (Algorithm 1
// steps 6-10). Uses google-benchmark.

#include <benchmark/benchmark.h>

#include "bench/parallel_bench.h"
#include "solver/conjugate_gradient.h"
#include "tensor/grad.h"
#include "tensor/ops.h"
#include "util/arena.h"
#include "util/rng.h"

namespace msopds {
namespace {

Tensor RandomTensor(std::vector<int64_t> shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = rng->Uniform(-1, 1);
  return t;
}

void BM_MatMulForward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Variable a = Constant(RandomTensor({n, n}, &rng));
  Variable b = Constant(RandomTensor({n, n}, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).value().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulForward)->Arg(16)->Arg(64)->Arg(128);

void BM_MatMulBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Variable a = Param(RandomTensor({n, n}, &rng));
  Variable b = Param(RandomTensor({n, n}, &rng));
  for (auto _ : state) {
    Variable loss = Sum(MatMul(a, b));
    benchmark::DoNotOptimize(GradValues(loss, {a, b}));
  }
}
BENCHMARK(BM_MatMulBackward)->Arg(16)->Arg(64);

void BM_SpMMForwardBackward(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  const int64_t edges = nodes * 10;
  const int64_t dim = 8;
  Rng rng(3);
  std::vector<int64_t> dst, src;
  for (int64_t e = 0; e < edges; ++e) {
    dst.push_back(rng.UniformInt(nodes));
    src.push_back(rng.UniformInt(nodes));
  }
  const IndexVec dst_index = MakeIndex(std::move(dst));
  const IndexVec src_index = MakeIndex(std::move(src));
  Variable w = Param(RandomTensor({edges}, &rng));
  Variable x = Param(RandomTensor({nodes, dim}, &rng));
  for (auto _ : state) {
    Variable out = SpMM(dst_index, src_index, w, x, nodes);
    Variable loss = Sum(Square(out));
    benchmark::DoNotOptimize(GradValues(loss, {w, x}));
  }
  state.SetItemsProcessed(state.iterations() * edges * dim);
}
BENCHMARK(BM_SpMMForwardBackward)->Arg(256)->Arg(1024);

void BM_SegmentSoftmaxBackward(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  const int64_t edges = nodes * 8;
  Rng rng(4);
  std::vector<int64_t> seg;
  for (int64_t e = 0; e < edges; ++e) seg.push_back(rng.UniformInt(nodes));
  const IndexVec seg_index = MakeIndex(std::move(seg));
  Variable scores = Param(RandomTensor({edges}, &rng));
  for (auto _ : state) {
    Variable out = SegmentSoftmax(scores, seg_index, nodes);
    benchmark::DoNotOptimize(GradValues(Sum(Square(out)), {scores}));
  }
}
BENCHMARK(BM_SegmentSoftmaxBackward)->Arg(256)->Arg(1024);

void BM_DoubleBackwardUnrolledStep(benchmark::State& state) {
  // Hessian-vector product through one recorded SGD step: the inner-most
  // operation of MSO's CG solve.
  const int64_t n = state.range(0);
  Rng rng(5);
  const Tensor theta0 = RandomTensor({n}, &rng);
  const Tensor target = RandomTensor({n}, &rng);
  const Tensor direction = RandomTensor({n}, &rng);
  for (auto _ : state) {
    Variable x = Param(theta0.Clone());
    Variable inner = Sum(Square(Sub(Square(x), Constant(target.Clone()))));
    Variable g = Grad(inner, {x})[0];
    Variable theta1 = Sub(x, ScalarMul(g, 0.1));
    Variable outer = Sum(Square(theta1));
    Variable outer_grad = Grad(outer, {x})[0];
    benchmark::DoNotOptimize(
        HessianVectorProduct(outer_grad, x, direction));
  }
}
BENCHMARK(BM_DoubleBackwardUnrolledStep)->Arg(64)->Arg(512);

// --- Serial-vs-parallel comparison cases (bench/parallel_bench.h). ---
// Each runs at threads:1 and threads:N over identical inputs; the main
// pairs the rows into the BENCH_parallel.json speedup table. Sizes are
// chosen so every kernel spans several chunks of the fixed grid.

void BM_MatMulForwardParallel(benchmark::State& state) {
  bench::SetThreadsFromState(state);
  const int64_t n = state.range(0);
  Rng rng(11);
  Variable a = Constant(RandomTensor({n, n}, &rng));
  Variable b = Constant(RandomTensor({n, n}, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).value().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulForwardParallel)
    ->Apply([](benchmark::internal::Benchmark* b) {
      bench::ParallelArgs(b, {128, 256});
    });

void BM_MatMulBackwardParallel(benchmark::State& state) {
  bench::SetThreadsFromState(state);
  const int64_t n = state.range(0);
  Rng rng(12);
  Variable a = Param(RandomTensor({n, n}, &rng));
  Variable b = Param(RandomTensor({n, n}, &rng));
  for (auto _ : state) {
    Variable loss = Sum(MatMul(a, b));
    benchmark::DoNotOptimize(GradValues(loss, {a, b}));
  }
}
BENCHMARK(BM_MatMulBackwardParallel)
    ->Apply([](benchmark::internal::Benchmark* b) {
      bench::ParallelArgs(b, {128, 256});
    });

void BM_SpMMParallel(benchmark::State& state) {
  bench::SetThreadsFromState(state);
  const int64_t nodes = state.range(0);
  const int64_t edges = nodes * 10;
  const int64_t dim = 8;
  Rng rng(13);
  std::vector<int64_t> dst, src;
  for (int64_t e = 0; e < edges; ++e) {
    dst.push_back(rng.UniformInt(nodes));
    src.push_back(rng.UniformInt(nodes));
  }
  const IndexVec dst_index = MakeIndex(std::move(dst));
  const IndexVec src_index = MakeIndex(std::move(src));
  Variable w = Param(RandomTensor({edges}, &rng));
  Variable x = Param(RandomTensor({nodes, dim}, &rng));
  for (auto _ : state) {
    Variable out = SpMM(dst_index, src_index, w, x, nodes);
    Variable loss = Sum(Square(out));
    benchmark::DoNotOptimize(GradValues(loss, {w, x}));
  }
  state.SetItemsProcessed(state.iterations() * edges * dim);
}
BENCHMARK(BM_SpMMParallel)->Apply([](benchmark::internal::Benchmark* b) {
  bench::ParallelArgs(b, {2048, 8192});
});

void BM_SegmentSoftmaxParallel(benchmark::State& state) {
  bench::SetThreadsFromState(state);
  const int64_t nodes = state.range(0);
  const int64_t edges = nodes * 8;
  Rng rng(14);
  std::vector<int64_t> seg;
  for (int64_t e = 0; e < edges; ++e) seg.push_back(rng.UniformInt(nodes));
  const IndexVec seg_index = MakeIndex(std::move(seg));
  Variable scores = Param(RandomTensor({edges}, &rng));
  for (auto _ : state) {
    Variable out = SegmentSoftmax(scores, seg_index, nodes);
    benchmark::DoNotOptimize(GradValues(Sum(Square(out)), {scores}));
  }
}
BENCHMARK(BM_SegmentSoftmaxParallel)
    ->Apply([](benchmark::internal::Benchmark* b) {
      bench::ParallelArgs(b, {4096});
    });

// --- Memory-profile cases (collected into BENCH_memory.json). ---
// Counters prefixed "mem_" are picked up by SpeedupReporter and written
// alongside a process MemStats sample (see bench/parallel_bench.h).

void BM_MemTrainStepAllocs(benchmark::State& state) {
  // Heap allocations per autodiff training step with the arena off
  // (arena:0) vs on (arena:1). One warm-up step populates the free lists
  // so the arena-on row measures the recycling steady state.
  const bool arena_on = state.range(0) != 0;
  const int64_t n = 64;
  Rng rng(21);
  Variable a = Param(RandomTensor({n, n}, &rng));
  Variable b = Param(RandomTensor({n, n}, &rng));
  Arena& arena = Arena::Global();
  const bool previous = arena.SetEnabled(arena_on);
  arena.Trim();
  {
    Variable loss = Sum(MatMul(a, b));
    benchmark::DoNotOptimize(GradValues(loss, {a, b}));
  }
  arena.ResetStats();
  int64_t steps = 0;
  for (auto _ : state) {
    Variable loss = Sum(MatMul(a, b));
    benchmark::DoNotOptimize(GradValues(loss, {a, b}));
    ++steps;
  }
  const ArenaStats stats = arena.stats();
  const double denom = steps > 0 ? static_cast<double>(steps) : 1.0;
  state.counters["mem_arena_on"] = arena_on ? 1.0 : 0.0;
  state.counters["mem_allocs_per_step"] =
      static_cast<double>(stats.alloc_calls) / denom;
  state.counters["mem_heap_allocs_per_step"] =
      static_cast<double>(stats.heap_allocs()) / denom;
  state.counters["mem_arena_hit_rate"] = stats.hit_rate();
  arena.SetEnabled(previous);
  arena.Trim();
}
BENCHMARK(BM_MemTrainStepAllocs)->ArgName("arena")->Arg(0)->Arg(1);

void BM_ConjugateGradientSolve(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(6);
  // SPD operator: (A A^T + I) x implemented densely.
  Tensor a = RandomTensor({n, n}, &rng);
  auto apply = [&](const Tensor& v) {
    Tensor tmp({n});
    for (int64_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (int64_t j = 0; j < n; ++j) s += a.at(j, i) * v.at(j);
      tmp.at(i) = s;
    }
    Tensor out({n});
    for (int64_t i = 0; i < n; ++i) {
      double s = v.at(i);
      for (int64_t j = 0; j < n; ++j) s += a.at(i, j) * tmp.at(j);
      out.at(i) = s;
    }
    return out;
  };
  const Tensor b = RandomTensor({n}, &rng);
  CgOptions options;
  options.max_iterations = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConjugateGradient(apply, b, options));
  }
}
BENCHMARK(BM_ConjugateGradientSolve)->Arg(64)->Arg(256);

}  // namespace
}  // namespace msopds

MSOPDS_PARALLEL_BENCH_MAIN("BENCH_parallel.json", "BENCH_memory.json");
