// Bit-exactness contract of the memory runtime (DESIGN.md "Memory
// model"): recycling buffers through the arena is a pure memory
// optimization — every gradient, Hessian-vector product and trained
// parameter must be byte-identical with the arena on or off.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "data/synthetic.h"
#include "recsys/het_recsys.h"
#include "recsys/trainer.h"
#include "tensor/grad.h"
#include "tensor/ops.h"
#include "util/arena.h"
#include "util/rng.h"

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
  for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = rng->Uniform(-1, 1);
  return t;
}

// Runs `fn` once with the arena enabled and once disabled and returns
// both result sets for comparison.
template <typename Fn>
std::pair<std::vector<Tensor>, std::vector<Tensor>> ArenaOnOff(const Fn& fn) {
  Arena& arena = Arena::Global();
  const bool previous = arena.SetEnabled(true);
  std::vector<Tensor> with = fn();
  arena.SetEnabled(false);
  arena.Trim();
  std::vector<Tensor> without = fn();
  arena.SetEnabled(previous);
  arena.Trim();
  return {std::move(with), std::move(without)};
}

TEST(MemoryDeterminismTest, GradValuesBitIdenticalArenaOnOff) {
  auto run = [] {
    Rng rng(3);
    Variable a = Param(RandomTensor({16, 16}, &rng));
    Variable b = Param(RandomTensor({16, 16}, &rng));
    Variable loss = Sum(Square(MatMul(a, b)));
    return GradValues(loss, {a, b});
  };
  const auto [with, without] = ArenaOnOff(run);
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_TRUE(BitIdentical(with[i], without[i])) << "grad " << i;
  }
}

TEST(MemoryDeterminismTest, HvpBitIdenticalArenaOnOff) {
  auto run = [] {
    Rng rng(4);
    const Tensor point = RandomTensor({24}, &rng);
    const Tensor direction = RandomTensor({24}, &rng);
    Variable x = Param(point.Clone());
    Variable inner = Sum(Square(Square(x)));
    Variable g = Grad(inner, {x})[0];
    return std::vector<Tensor>{HessianVectorProduct(g, x, direction)};
  };
  const auto [with, without] = ArenaOnOff(run);
  EXPECT_TRUE(BitIdentical(with[0], without[0]));
}

TEST(MemoryDeterminismTest, TrainModelBitIdenticalArenaOnOff) {
  auto run = [] {
    SyntheticConfig config;
    config.num_users = 40;
    config.num_items = 50;
    config.num_ratings = 400;
    config.num_social_links = 120;
    Rng world_rng(21);
    const Dataset world = GenerateSynthetic(config, &world_rng);
    Rng model_rng(7);
    HetRecSys model(world, HetRecSysConfig{}, &model_rng);
    TrainOptions options;
    options.epochs = 4;
    const TrainResult result = TrainModel(&model, world.ratings, options);
    EXPECT_TRUE(result.healthy);
    std::vector<Tensor> snapshot;
    for (const Variable& param : *model.MutableParams()) {
      snapshot.push_back(param.value().Clone());
    }
    return snapshot;
  };
  const auto [with, without] = ArenaOnOff(run);
  ASSERT_EQ(with.size(), without.size());
  ASSERT_FALSE(with.empty());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_TRUE(BitIdentical(with[i], without[i])) << "param " << i;
  }
}

}  // namespace
}  // namespace msopds
