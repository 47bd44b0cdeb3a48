// Micro-benchmarks of the recommender substrates and the PDS pipeline:
// victim training epochs, PDS unrolled evaluation, first-order gradients
// through the unroll, and one full MSO leader update (with CG).
// Also sweeps the eta^p / eta^q ratio ablation called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include "bench/ab_bench.h"

#include "attack/baselines.h"
#include "core/losses.h"
#include "core/mso_optimizer.h"
#include "core/pds_surrogate.h"
#include "data/demographics.h"
#include "data/synthetic.h"
#include "recsys/het_recsys.h"
#include "recsys/trainer.h"
#include "tensor/optim.h"
#include "tensor/grad.h"
#include "util/arena.h"

namespace msopds {
namespace {

struct World {
  Dataset dataset;
  Demographics demo;
  CapacitySet capacity;
  CapacitySet opponent_capacity;

  explicit World(int64_t users) {
    SyntheticConfig config;
    config.num_users = users;
    config.num_items = users + users / 2;
    config.num_ratings = users * 12;
    config.num_social_links = users * 6;
    Rng rng(9);
    dataset = GenerateSynthetic(config, &rng);
    demo = SampleDemographics(dataset, 1, &rng)[0];
    const auto fakes = AddFakeUsers(&dataset, users / 25 + 1);
    for (int64_t fake : fakes) {
      dataset.ratings.push_back({fake, demo.target_item, 5.0});
    }
    capacity = CapacitySet::MakeComprehensive(dataset, demo, fakes, 5.0);
    opponent_capacity = CapacitySet::MakeRatingOnly(dataset, demo, 1.0);
  }
};

void BM_VictimTrainingEpoch(benchmark::State& state) {
  World world(state.range(0));
  Rng rng(1);
  HetRecSys model(world.dataset, HetRecSysConfig{}, &rng);
  std::vector<Variable>* params = model.MutableParams();
  Adam optimizer(0.05);
  for (auto _ : state) {
    Variable loss = model.TrainingLoss(world.dataset.ratings);
    optimizer.Step(params, GradValues(loss, *params));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(world.dataset.ratings.size()));
}
BENCHMARK(BM_VictimTrainingEpoch)->Arg(100)->Arg(300);

void BM_PdsUnrolledForward(benchmark::State& state) {
  World world(state.range(0));
  PdsConfig config;
  Rng rng(2);
  PdsSurrogate surrogate(world.dataset, {&world.capacity}, config, &rng);
  Variable xhat = Param(Tensor::Full({world.capacity.size()}, 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(surrogate.TrainUnrolled({xhat}));
  }
}
BENCHMARK(BM_PdsUnrolledForward)->Arg(100)->Arg(300);

void BM_PdsGradientThroughUnroll(benchmark::State& state) {
  World world(state.range(0));
  PdsConfig config;
  Rng rng(3);
  PdsSurrogate surrogate(world.dataset, {&world.capacity}, config, &rng);
  std::vector<int64_t> users = world.demo.target_audience;
  std::vector<int64_t> items(users.size(), world.demo.target_item);
  for (auto _ : state) {
    Variable xhat = Param(Tensor::Full({world.capacity.size()}, 0.5));
    const auto outcome = surrogate.TrainUnrolled({xhat});
    Variable loss = Neg(Mean(surrogate.Predict(outcome, users, items)));
    benchmark::DoNotOptimize(GradValues(loss, {xhat}));
  }
}
BENCHMARK(BM_PdsGradientThroughUnroll)->Arg(100)->Arg(300);

void BM_MsoLeaderIteration(benchmark::State& state) {
  // One full MSO outer iteration: binarize, unrolled losses, gradients,
  // CG Hessian solve, mixed vector-Jacobian, updates.
  World world(state.range(0));
  PdsConfig pds_config;
  Rng rng(4);
  PdsSurrogate surrogate(world.dataset,
                         {&world.capacity, &world.opponent_capacity},
                         pds_config, &rng);
  std::vector<int64_t> tu = world.demo.target_audience;
  std::vector<int64_t> ti(tu.size(), world.demo.target_item);
  std::vector<int64_t> cu, ci;
  for (int64_t user : world.demo.target_audience) {
    for (int64_t item : world.demo.compete_items) {
      cu.push_back(user);
      ci.push_back(item);
    }
  }
  const int64_t num_compete =
      static_cast<int64_t>(world.demo.compete_items.size());
  MsoOptimizer::LossFn losses = [&](const std::vector<Variable>& xhats) {
    const auto outcome = surrogate.TrainUnrolled(xhats);
    Variable tp = surrogate.Predict(outcome, tu, ti);
    Variable cp = surrogate.Predict(outcome, cu, ci);
    return std::vector<Variable>{
        ComprehensiveLossFromPredictions(tp, cp, num_compete, false),
        ComprehensiveLossFromPredictions(tp, cp, num_compete, true)};
  };
  MsoConfig mso;
  mso.outer_iterations = 1;
  const MsoOptimizer optimizer(mso);
  Rng iv_rng(5);
  ImportanceVector leader(&world.capacity, &iv_rng);
  ImportanceVector follower(&world.opponent_capacity, &iv_rng);
  const Budget leader_budget{10, 20, 10};
  const Budget follower_budget{10, 0, 0};
  for (auto _ : state) {
    optimizer.Optimize(losses, {&leader, &follower},
                       {leader_budget, follower_budget});
  }
}
BENCHMARK(BM_MsoLeaderIteration)->Arg(100)->Arg(200);

// Serial-vs-parallel comparison of a full victim training epoch (the
// end-to-end path every sweep cell spends most of its time in); rows
// pair in BENCH_micro_recsys.json. Results are bit-identical at
// either thread count — only the wall time may differ.
void BM_VictimTrainingEpochParallel(benchmark::State& state) {
  const bench::ScopedCaseThreads threads(state);
  World world(state.range(0));
  Rng rng(11);
  HetRecSys model(world.dataset, HetRecSysConfig{}, &rng);
  std::vector<Variable>* params = model.MutableParams();
  Adam optimizer(0.05);
  for (auto _ : state) {
    Variable loss = model.TrainingLoss(world.dataset.ratings);
    optimizer.Step(params, GradValues(loss, *params));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(world.dataset.ratings.size()));
}
BENCHMARK(BM_VictimTrainingEpochParallel)
    ->Apply([](benchmark::internal::Benchmark* b) {
      bench::ThreadPairs(b, {300});
    });

// --- Arena off/on pairs; each side's "mem_" counters ride in its row. ---

void BM_MemVictimEpochAllocs(benchmark::State& state) {
  // Heap allocations per victim training epoch with the arena off
  // (arena:0) vs on (arena:1); one warm-up epoch populates the pool.
  const bool arena_on = state.range(0) != 0;
  World world(100);
  Rng rng(21);
  HetRecSys model(world.dataset, HetRecSysConfig{}, &rng);
  std::vector<Variable>* params = model.MutableParams();
  Adam optimizer(0.05);
  Arena& arena = Arena::Global();
  const bool previous = arena.SetEnabled(arena_on);
  arena.Trim();
  {
    Variable loss = model.TrainingLoss(world.dataset.ratings);
    optimizer.Step(params, GradValues(loss, *params));
  }
  arena.ResetStats();
  int64_t epochs = 0;
  for (auto _ : state) {
    Variable loss = model.TrainingLoss(world.dataset.ratings);
    optimizer.Step(params, GradValues(loss, *params));
    ++epochs;
  }
  const ArenaStats stats = arena.stats();
  const double denom = epochs > 0 ? static_cast<double>(epochs) : 1.0;
  state.counters["mem_allocs_per_step"] =
      static_cast<double>(stats.alloc_calls) / denom;
  state.counters["mem_heap_allocs_per_step"] =
      static_cast<double>(stats.heap_allocs()) / denom;
  state.counters["mem_arena_hit_rate"] = stats.hit_rate();
  arena.SetEnabled(previous);
  arena.Trim();
}
BENCHMARK(BM_MemVictimEpochAllocs)->ArgName("arena")->Arg(0)->Arg(1);

void BM_StepRatioAblation(benchmark::State& state) {
  // eta^p fixed at eta^q / ratio; reports the leader loss reached after
  // 5 iterations for each ratio (larger counter = stronger separation of
  // time scales, the push-pull condition).
  const int ratio = static_cast<int>(state.range(0));
  World world(120);
  PdsConfig pds_config;
  pds_config.inner_steps = 3;
  Rng rng(6);
  PdsSurrogate surrogate(world.dataset,
                         {&world.capacity, &world.opponent_capacity},
                         pds_config, &rng);
  std::vector<int64_t> tu = world.demo.target_audience;
  std::vector<int64_t> ti(tu.size(), world.demo.target_item);
  std::vector<int64_t> cu, ci;
  for (int64_t user : world.demo.target_audience) {
    for (int64_t item : world.demo.compete_items) {
      cu.push_back(user);
      ci.push_back(item);
    }
  }
  const int64_t num_compete =
      static_cast<int64_t>(world.demo.compete_items.size());
  MsoOptimizer::LossFn losses = [&](const std::vector<Variable>& xhats) {
    const auto outcome = surrogate.TrainUnrolled(xhats);
    Variable tp = surrogate.Predict(outcome, tu, ti);
    Variable cp = surrogate.Predict(outcome, cu, ci);
    return std::vector<Variable>{
        ComprehensiveLossFromPredictions(tp, cp, num_compete, false),
        ComprehensiveLossFromPredictions(tp, cp, num_compete, true)};
  };
  double final_loss = 0.0;
  for (auto _ : state) {
    MsoConfig mso;
    mso.follower_step = 0.05;
    mso.leader_step = 0.05 / ratio;
    mso.outer_iterations = 5;
    Rng iv_rng(7);
    ImportanceVector leader(&world.capacity, &iv_rng);
    ImportanceVector follower(&world.opponent_capacity, &iv_rng);
    const auto history =
        MsoOptimizer(mso).Optimize(losses, {&leader, &follower},
                                   {Budget{10, 20, 10}, Budget{10, 0, 0}});
    final_loss = history.back().leader_loss;
  }
  state.counters["final_leader_loss"] = final_loss;
}
BENCHMARK(BM_StepRatioAblation)->Arg(2)->Arg(10)->Arg(50);

}  // namespace
}  // namespace msopds

MSOPDS_AB_BENCH_MAIN("BENCH_micro_recsys.json");
