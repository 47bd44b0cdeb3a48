// Bit-exactness contract of the parallel tensor runtime: every kernel,
// and an end-to-end TrainModel run, must produce byte-identical results
// at any thread count (DESIGN.md "Parallel runtime"). The registry sweep
// covers every op via its OpSpec example; the large-kernel cases force
// multi-chunk grids (registry examples are small enough to be single
// chunk, which is exact by construction).

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "recsys/het_recsys.h"
#include "recsys/trainer.h"
#include "tensor/grad.h"
#include "tensor/ops.h"
#include "tensor/verify.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace msopds {
namespace {

::testing::AssertionResult BitIdentical(const Tensor& a, const Tensor& b) {
  if (!a.SameShape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(a.data(), b.data(),
                  sizeof(double) * static_cast<size_t>(a.size())) != 0) {
    for (int64_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(a.data() + i, b.data() + i, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "first differing element " << i << ": " << a.data()[i]
               << " vs " << b.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

Tensor RandomTensor(std::vector<int64_t> shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng->Uniform(-1.0, 1.0);
  }
  return t;
}

IndexVec RandomIndex(int64_t count, int64_t limit, Rng* rng) {
  std::vector<int64_t> idx(static_cast<size_t>(count));
  for (int64_t& v : idx) v = rng->UniformInt(limit);
  return MakeIndex(std::move(idx));
}

// Forward value followed by the gradient w.r.t. every parameter.
std::vector<Tensor> ForwardAndGrads(const Variable& out,
                                    const std::vector<Variable>& params) {
  std::vector<Tensor> results;
  results.push_back(out.value().Clone());
  for (Tensor& g : GradValues(out, params)) {
    results.push_back(std::move(g));
  }
  return results;
}

std::vector<Tensor> EvalExample(const GradcheckCase& example) {
  std::vector<Variable> params;
  params.reserve(example.points.size());
  for (const Tensor& point : example.points) {
    params.push_back(Param(point.Clone()));
  }
  return ForwardAndGrads(example.fn(params), params);
}

// Runs `eval` at each thread count and asserts every returned tensor is
// byte-identical to the single-threaded baseline.
template <typename Eval>
void ExpectBitIdenticalAcrossThreads(const char* what, const Eval& eval) {
  ThreadPool::Global().SetNumThreads(1);
  const std::vector<Tensor> baseline = eval();
  for (int threads : {2, 7}) {
    ThreadPool::Global().SetNumThreads(threads);
    const std::vector<Tensor> got = eval();
    ASSERT_EQ(baseline.size(), got.size()) << what << " threads=" << threads;
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_TRUE(BitIdentical(baseline[i], got[i]))
          << what << " tensor " << i << " at threads=" << threads;
    }
  }
  ThreadPool::Global().SetNumThreads(1);
}

TEST(ParallelDeterminismTest, EveryRegisteredOpBitIdenticalAcrossThreads) {
  int checked = 0;
  for (const OpSpec& spec : OpRegistry()) {
    if (!spec.example) continue;  // exercised through another op's backward
    const GradcheckCase example = spec.example();
    ExpectBitIdenticalAcrossThreads(spec.name.c_str(),
                                    [&example] { return EvalExample(example); });
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

TEST(ParallelDeterminismTest, TiledMatMulMultiChunk) {
  Rng rng(31);
  // 120x90 @ 90x70: wide enough that forward and both backward products
  // span several row chunks and k blocks.
  const Tensor a0 = RandomTensor({120, 90}, &rng);
  const Tensor b0 = RandomTensor({90, 70}, &rng);
  ExpectBitIdenticalAcrossThreads("MatMul", [&] {
    std::vector<Variable> params = {Param(a0.Clone()), Param(b0.Clone())};
    return ForwardAndGrads(Sum(Square(MatMul(params[0], params[1]))), params);
  });
}

TEST(ParallelDeterminismTest, SpMMMultiChunk) {
  Rng rng(32);
  constexpr int64_t kNumSrc = 500;
  constexpr int64_t kNumDst = 3000;  // several destination buckets at D=8
  constexpr int64_t kDim = 8;
  constexpr int64_t kNumEdges = 20000;
  const IndexVec dst = RandomIndex(kNumEdges, kNumDst, &rng);
  const IndexVec src = RandomIndex(kNumEdges, kNumSrc, &rng);
  const Tensor w0 = RandomTensor({kNumEdges}, &rng);
  const Tensor x0 = RandomTensor({kNumSrc, kDim}, &rng);
  ExpectBitIdenticalAcrossThreads("SpMM", [&] {
    std::vector<Variable> params = {Param(w0.Clone()), Param(x0.Clone())};
    return ForwardAndGrads(
        Sum(Square(SpMM(dst, src, params[0], params[1], kNumDst))), params);
  });
}

TEST(ParallelDeterminismTest, EdgeDotMultiChunk) {
  Rng rng(33);
  constexpr int64_t kRows = 300;
  constexpr int64_t kDim = 12;
  constexpr int64_t kNumEdges = 20000;
  const IndexVec ai = RandomIndex(kNumEdges, kRows, &rng);
  const IndexVec bi = RandomIndex(kNumEdges, kRows, &rng);
  const Tensor a0 = RandomTensor({kRows, kDim}, &rng);
  const Tensor b0 = RandomTensor({kRows, kDim}, &rng);
  ExpectBitIdenticalAcrossThreads("EdgeDot", [&] {
    std::vector<Variable> params = {Param(a0.Clone()), Param(b0.Clone())};
    return ForwardAndGrads(
        Sum(Square(EdgeDot(params[0], params[1], ai, bi))), params);
  });
}

TEST(ParallelDeterminismTest, SegmentSoftmaxMultiChunk) {
  Rng rng(34);
  constexpr int64_t kNumSegments = 9000;
  constexpr int64_t kNumEdges = 40000;
  const IndexVec seg = RandomIndex(kNumEdges, kNumSegments, &rng);
  const Tensor scores0 = RandomTensor({kNumEdges}, &rng);
  ExpectBitIdenticalAcrossThreads("SegmentSoftmax", [&] {
    std::vector<Variable> params = {Param(scores0.Clone())};
    return ForwardAndGrads(
        Sum(Square(SegmentSoftmax(params[0], seg, kNumSegments))), params);
  });
}

TEST(ParallelDeterminismTest, LargeReductionMultiChunk) {
  Rng rng(35);
  const Tensor x0 = RandomTensor({100000}, &rng);  // ~4 reduce chunks
  ExpectBitIdenticalAcrossThreads("Sum", [&] {
    std::vector<Variable> params = {Param(x0.Clone())};
    return ForwardAndGrads(Sum(Mul(params[0], params[0])), params);
  });
}

// First- and second-order reverse mode over one small graph: the
// graph-mode gradient, a Hessian-vector product through it, and the
// value-mode gradient.
std::vector<Tensor> GradHvpAndValues(uint64_t seed) {
  Rng rng(seed);
  const Tensor x0 = RandomTensor({6, 8}, &rng);
  const Tensor w0 = RandomTensor({8, 5}, &rng);
  const Tensor v = RandomTensor({8, 5}, &rng);
  Variable w = Param(w0.Clone());
  Variable loss = Sum(Square(Sigmoid(MatMul(Constant(x0.Clone()), w))));
  Variable grad = Grad(loss, {w})[0];
  std::vector<Tensor> results = {grad.value().Clone(),
                                 HessianVectorProduct(grad, w, v)};
  for (Tensor& g : GradValues(loss, {w})) results.push_back(std::move(g));
  return results;
}

// Backward walks on two threads at once, each over its own graph, give
// the single-thread results bit for bit. Under ThreadSanitizer this
// race-checks the state the walks share (node seqs, the recording flag,
// the arena). The kernel pool takes one top-level region at a time, so
// the kernels run inline on each walking thread.
TEST(ParallelDeterminismTest, ConcurrentBackwardWalksMatchSerialWalks) {
  ThreadPool::Global().SetNumThreads(1);
  constexpr int kRepeats = 20;
  const uint64_t seeds[2] = {41, 42};
  const std::vector<Tensor> serial[2] = {GradHvpAndValues(seeds[0]),
                                         GradHvpAndValues(seeds[1])};
  std::vector<std::vector<Tensor>> concurrent[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&concurrent, &seeds, t] {
      for (int rep = 0; rep < kRepeats; ++rep) {
        concurrent[t].push_back(GradHvpAndValues(seeds[t]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < 2; ++t) {
    ASSERT_EQ(concurrent[t].size(), static_cast<size_t>(kRepeats));
    for (const std::vector<Tensor>& got : concurrent[t]) {
      ASSERT_EQ(got.size(), serial[t].size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(BitIdentical(serial[t][i], got[i]))
            << "thread " << t << " tensor " << i;
      }
    }
  }
}

// End-to-end acceptance criterion: one full TrainModel run produces
// byte-identical parameters and loss history at 1 vs 4 threads.
TEST(ParallelDeterminismTest, TrainModelBitIdenticalAtOneVsFourThreads) {
  auto train = [](int threads, std::vector<double>* losses) {
    SyntheticConfig config;
    config.num_users = 60;
    config.num_items = 80;
    config.num_ratings = 700;
    config.num_social_links = 200;
    Rng world_rng(21);
    const Dataset world = GenerateSynthetic(config, &world_rng);
    Rng model_rng(7);
    HetRecSys model(world, HetRecSysConfig{}, &model_rng);
    TrainOptions options;
    options.epochs = 8;
    options.num_threads = threads;
    const TrainResult result = TrainModel(&model, world.ratings, options);
    EXPECT_TRUE(result.healthy);
    *losses = result.loss_history;
    std::vector<Tensor> snapshot;
    for (const Variable& param : *model.MutableParams()) {
      snapshot.push_back(param.value().Clone());
    }
    return snapshot;
  };

  std::vector<double> losses1, losses4;
  const std::vector<Tensor> params1 = train(1, &losses1);
  const std::vector<Tensor> params4 = train(4, &losses4);
  ThreadPool::Global().SetNumThreads(1);

  ASSERT_EQ(losses1.size(), losses4.size());
  ASSERT_FALSE(losses1.empty());
  EXPECT_EQ(std::memcmp(losses1.data(), losses4.data(),
                        sizeof(double) * losses1.size()),
            0);
  ASSERT_EQ(params1.size(), params4.size());
  ASSERT_FALSE(params1.empty());
  for (size_t i = 0; i < params1.size(); ++i) {
    EXPECT_TRUE(BitIdentical(params1[i], params4[i])) << "param " << i;
  }
}

}  // namespace
}  // namespace msopds
