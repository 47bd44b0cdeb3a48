// game-msopds: one Table III cell replayed game by game.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <thread>

#include "core/bopds.h"
#include "core/experiment.h"
#include "core/msopds.h"
#include "recsys/het_recsys.h"
#include "recsys/metrics.h"
#include "util/arena.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using msopds::Arena;
using msopds::ArenaStats;

enum Phase { kAttacker = 0, kOpponent = 1, kVictim = 2 };

constexpr double kMiB = 1024.0 * 1024.0;

/// Games use consecutive seeds from a base derived from the run seed.
uint64_t FirstGameSeed(uint64_t run_seed) { return run_seed * 1000; }

void BeginPhase(const GameCounters* counters) {
  if (counters != nullptr) Arena::Global().ResetStats();
}

void EndPhase(Phase phase, GameCounters* counters) {
  if (counters == nullptr) return;
  const ArenaStats stats = Arena::Global().stats();
  counters->arena_allocs[phase] = stats.alloc_calls;
  counters->arena_hit_rate[phase] = stats.hit_rate();
  counters->arena_peak_mb[phase] =
      static_cast<double>(stats.high_water_bytes) / kMiB;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Per-layer values of the traced games: span medians per game, counter
/// means per game, arena peaks as the maximum over games.
Values GameLayerValues(const std::vector<SpanRecord>& spans,
                       const std::vector<msopds::GameResult>& results,
                       const std::vector<GameCounters>& counters) {
  Values values;
  values["attack.attacker_ms"] = MedianMs(spans, "attack.attacker");
  values["attack.opponent_ms"] = MedianMs(spans, "attack.opponent");
  values["recsys.victim_build_ms"] = MedianMs(spans, "recsys.victim_build");
  values["recsys.victim_train_ms"] = MedianMs(spans, "recsys.victim_train");
  values["recsys.metrics_ms"] = MedianMs(spans, "recsys.metrics");

  const std::vector<double> attacker_ms = DurationsMs(spans, "attack.attacker");
  std::vector<double> per_iteration_ms;
  std::vector<double> mso, unhealthy, cg, breakdowns, fallbacks, epochs;
  std::vector<double> retries, actions, opponent_ratings;
  std::vector<double> allocs[3], hit_rate[3];
  double peak_mb[3] = {0.0, 0.0, 0.0};
  for (size_t g = 0; g < counters.size(); ++g) {
    const GameCounters& c = counters[g];
    mso.push_back(static_cast<double>(c.mso_iterations));
    if (c.mso_iterations > 0 && g < attacker_ms.size()) {
      per_iteration_ms.push_back(attacker_ms[g] /
                                 static_cast<double>(c.mso_iterations));
    }
    unhealthy.push_back(static_cast<double>(c.unhealthy_iterations));
    cg.push_back(static_cast<double>(c.cg_iterations));
    breakdowns.push_back(static_cast<double>(c.cg_breakdowns));
    fallbacks.push_back(static_cast<double>(c.cg_fallbacks));
    epochs.push_back(static_cast<double>(c.victim_epochs));
    retries.push_back(static_cast<double>(results[g].victim_retries));
    actions.push_back(
        static_cast<double>(results[g].attacker_plan.actions.size()));
    opponent_ratings.push_back(
        static_cast<double>(results[g].opponent_ratings));
    for (int p = 0; p < 3; ++p) {
      allocs[p].push_back(static_cast<double>(c.arena_allocs[p]));
      hit_rate[p].push_back(c.arena_hit_rate[p]);
      peak_mb[p] = std::max(peak_mb[p], c.arena_peak_mb[p]);
    }
  }
  values["core.mso_iterations"] = Mean(mso);
  values["core.ms_per_mso_iteration"] = NearestRank(per_iteration_ms, 50.0);
  values["core.unhealthy_iterations"] = Mean(unhealthy);
  values["solver.cg_iterations"] = Mean(cg);
  values["solver.cg_breakdowns"] = Mean(breakdowns);
  values["solver.cg_fallbacks"] = Mean(fallbacks);
  values["recsys.victim_epochs"] = Mean(epochs);
  values["recsys.victim_retries"] = Mean(retries);
  values["attack.plan_actions"] = Mean(actions);
  values["attack.opponent_ratings"] = Mean(opponent_ratings);
  const char* phases[3] = {"attacker", "opponent", "victim"};
  for (int p = 0; p < 3; ++p) {
    const std::string suffix = phases[p];
    values["tensor.arena_allocs." + suffix] = Mean(allocs[p]);
    values["tensor.arena_hit_rate." + suffix] = Mean(hit_rate[p]);
    values["tensor.arena_peak_mb." + suffix] = peak_mb[p];
  }
  return values;
}

}  // namespace

msopds::GameResult ReplayGame(const msopds::MultiplayerGame& game,
                              const msopds::AttackFactory& factory,
                              int budget_level, uint64_t seed,
                              Tracer* tracer, int64_t op,
                              GameCounters* counters) {
  using namespace msopds;
  if (!tracer->enabled()) counters = nullptr;
  const Dataset& base = game.base();
  const GameConfig& config = game.config();
  const Tracer::Scope op_span = tracer->Span("op", op);
  Rng rng(seed);

  GameContext context;
  context.base = &base;
  {
    const Tracer::Scope span = tracer->Span("data.sample_demographics", op);
    context.demos = SampleDemographics(base, 1 + config.num_opponents, &rng);
  }
  context.config = config;
  std::unique_ptr<Attack> attacker;
  {
    const Tracer::Scope span = tracer->Span("core.make_attacker", op);
    context.attacker_budget = AttackBudget::FromLevel(budget_level, base);
    attacker = factory(context);
  }
  GameResult result;
  result.method = attacker->name();

  // 1) The attacker poisons the clean data.
  Dataset world;
  {
    const Tracer::Scope span = tracer->Span("data.copy_world", op);
    world = base;
  }
  Rng attacker_rng = rng.Split();
  BeginPhase(counters);
  {
    const Tracer::Scope span = tracer->Span("attack.attacker", op);
    result.attacker_plan = attacker->Execute(
        &world, context.demos[0], context.attacker_budget, &attacker_rng);
  }
  EndPhase(kAttacker, counters);
  if (counters != nullptr) {
    if (const auto* msopds = dynamic_cast<const Msopds*>(attacker.get())) {
      for (const MsoIterationStats& it : msopds->last_history()) {
        ++counters->mso_iterations;
        if (!it.healthy()) ++counters->unhealthy_iterations;
        counters->cg_iterations += it.cg_iterations;
        counters->cg_breakdowns += it.cg_breakdowns;
        counters->cg_fallbacks += it.cg_fallbacks;
      }
    }
  }

  // 2) Each opponent demotes the attacker's target with BOPDS.
  BeginPhase(counters);
  for (int q = 0; q < config.num_opponents; ++q) {
    const Tracer::Scope span = tracer->Span("attack.opponent", op);
    BopdsConfig opponent_config;
    opponent_config.pds = config.opponent_pds;
    opponent_config.step = config.opponent_step;
    opponent_config.iterations = config.opponent_iterations;
    opponent_config.comprehensive = false;
    opponent_config.demote = true;
    opponent_config.preset_rating = kMinRating;
    opponent_config.variant_name = "BOPDS-opponent";
    Bopds opponent(opponent_config);

    AttackBudget opponent_budget =
        AttackBudget::FromLevel(config.opponent_budget_level, world);
    opponent_budget.promote_rating = kMinRating;

    Rng opponent_rng = rng.Split();
    const PoisonPlan plan =
        opponent.Execute(&world, context.demos[static_cast<size_t>(q + 1)],
                         opponent_budget, &opponent_rng);
    result.opponent_ratings += plan.CountType(ActionType::kRating);
  }
  EndPhase(kOpponent, counters);

  // 3) The victim Het-RecSys trains on the poisoned records.
  BeginPhase(counters);
  Rng victim_rng = rng.Split();
  std::unique_ptr<HetRecSys> victim;
  {
    const Tracer::Scope span = tracer->Span("recsys.victim_build", op);
    victim = std::make_unique<HetRecSys>(world, config.victim, &victim_rng);
  }
  TrainResult training;
  {
    const Tracer::Scope span = tracer->Span("recsys.victim_train", op);
    training = TrainModel(victim.get(), world.ratings, config.victim_training);
  }
  EndPhase(kVictim, counters);
  if (counters != nullptr) {
    counters->victim_epochs =
        static_cast<int64_t>(training.loss_history.size());
  }
  result.victim_final_loss = training.final_loss;
  result.victim_retries = training.retries;
  if (!training.healthy) {
    result.healthy = false;
    result.failure = "victim training: " + training.failure;
  }

  // 4) The attacker's metrics on his market.
  {
    const Tracer::Scope span = tracer->Span("recsys.metrics", op);
    const Demographics& market = context.demos[0];
    result.average_rating = AverageTargetRating(
        victim.get(), market.target_audience, market.target_item);
    result.hit_rate_at_3 =
        HitRateAtK(victim.get(), market.target_audience, market.target_item,
                   market.compete_items, /*k=*/3);
  }
  if (result.healthy && (!std::isfinite(result.average_rating) ||
                         !std::isfinite(result.hit_rate_at_3))) {
    result.healthy = false;
    result.failure = "non-finite attacker metrics";
  }
  return result;
}

std::string CompareGames(const msopds::GameResult& expected,
                         const msopds::GameResult& actual) {
  if (!expected.healthy) return "reference game unhealthy: " + expected.failure;
  if (!actual.healthy) return "replayed game unhealthy: " + actual.failure;
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  if (bits(expected.average_rating) != bits(actual.average_rating)) {
    return msopds::StrFormat("rbar %.17g != reference %.17g",
                             actual.average_rating, expected.average_rating);
  }
  if (bits(expected.hit_rate_at_3) != bits(actual.hit_rate_at_3)) {
    return msopds::StrFormat("HR@3 %.17g != reference %.17g",
                             actual.hit_rate_at_3, expected.hit_rate_at_3);
  }
  return "";
}

Outcome RunGameWorkload(const GameCell& cell, const RunOptions& options) {
  using namespace msopds;
  // One kernel thread: at four, pool spinning and scheduling spread the
  // same games' wall time by a third between runs.
  ThreadPool::Global().SetNumThreads(1);
  const AttackFactory factory = MakeAttackFactory(cell.method);
  const uint64_t first_game = FirstGameSeed(options.seed);
  Tracer untraced(false);
  Outcome outcome;

  // Set-up, kSetups times (the reported set-up time is their median):
  // dataset, game, and one untimed warm-up game through
  // MultiplayerGame::Run that also fills the arena free lists and faults
  // in pages. Warm-up game r is the reference for timed game r.
  std::unique_ptr<MultiplayerGame> game;
  std::vector<GameResult> expected;
  for (int rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point start = Clock::now();
    game.reset();
    game = std::make_unique<MultiplayerGame>(
        MakeExperimentDataset(cell.profile, cell.scale, options.seed),
        DefaultGameConfig());
    expected.push_back(game->Run(factory, cell.budget_level,
                                 first_game + static_cast<uint64_t>(rep)));
    outcome.setup_s.push_back(MsBetween(start, Clock::now()) * 1e-3);
  }

  // Timed phase: consecutive games until the time is up.
  std::vector<GameResult> replayed;
  const Clock::time_point timed_start = Clock::now();
  do {
    const uint64_t seed = first_game + replayed.size();
    const Clock::time_point start = Clock::now();
    replayed.push_back(ReplayGame(*game, factory, cell.budget_level, seed,
                                  &untraced, -1, nullptr));
    outcome.op_ms.push_back(MsBetween(start, Clock::now()));
  } while (MsBetween(timed_start, Clock::now()) < options.seconds * 1e3);
  outcome.timed_s = MsBetween(timed_start, Clock::now()) * 1e-3;
  outcome.peak_rss_mb = PeakRssMb();
  const size_t games = replayed.size();

  // Traced phase: the same games again, with spans and counters.
  std::vector<GameResult> traced;
  if (options.trace) {
    Tracer tracer(true);
    std::vector<GameCounters> counters(games);
    std::vector<double> traced_ms;
    for (size_t g = 0; g < games; ++g) {
      const Clock::time_point start = Clock::now();
      traced.push_back(ReplayGame(*game, factory, cell.budget_level,
                                  first_game + g, &tracer,
                                  static_cast<int64_t>(g), &counters[g]));
      traced_ms.push_back(MsBetween(start, Clock::now()));
    }
    const std::vector<SpanRecord> spans = tracer.Spans();
    outcome.per_layer = GameLayerValues(spans, traced, counters);
    FinishTrace(tracer, traced_ms, options, &outcome);
  }

  // Checks, outside the timed region: every replayed game against
  // MultiplayerGame::Run with the same seed. References the set-up did
  // not produce are played on up to three threads; with the kernel pool
  // at one thread each game runs its kernels inline, and games share
  // only the thread-safe arena.
  std::atomic<size_t> next{expected.size()};
  expected.resize(std::max(expected.size(), games));
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&] {
      for (size_t g = next.fetch_add(1); g < games; g = next.fetch_add(1)) {
        expected[g] = game->Run(factory, cell.budget_level, first_game + g);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (size_t g = 0; g < games; ++g) {
    for (const std::vector<GameResult>* results : {&replayed, &traced}) {
      if (g >= results->size()) continue;
      ++outcome.attempted;
      const std::string error = CompareGames(expected[g], (*results)[g]);
      if (!error.empty()) {
        outcome.Fail(StrFormat("game seed %llu: %s",
                               static_cast<unsigned long long>(first_game + g),
                               error.c_str()));
      }
    }
  }
  return outcome;
}

}  // namespace perfbench
