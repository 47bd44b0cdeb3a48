// Serving demo: train → publish → poison → republish, live.
//
//  1. Generate a Ciao-like synthetic dataset and sample the market
//     demographics (target audience, the attacker's target item).
//  2. Train a matrix-factorization victim on the clean ratings, export
//     an immutable snapshot, and publish it to a ServingEngine.
//  3. Start client traffic against the engine (random audience members
//     asking for top-10 lists).
//  4. Run a Random injection attack on the dataset, retrain the victim
//     on the poisoned ratings, and hot-swap the new snapshot into the
//     engine *while the clients keep hitting it*.
//  5. Report the target item's mean full-catalog rank before vs after,
//     how often it appeared in the lists actually served under each
//     snapshot version, and the engine's latency stats.
//
// Build & run:  cmake --build build && ./build/examples/serve_demo

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "attack/baselines.h"
#include "core/experiment.h"
#include "data/demographics.h"
#include "recsys/matrix_factorization.h"
#include "recsys/trainer.h"
#include "serve/admission.h"
#include "serve/engine.h"
#include "serve/model_snapshot.h"
#include "serve/topk.h"
#include "util/rng.h"

namespace msopds {
namespace {

double MeanRatingValue(const std::vector<Rating>& ratings) {
  double total = 0.0;
  for (const Rating& r : ratings) total += r.value;
  return ratings.empty() ? 0.0 : total / static_cast<double>(ratings.size());
}

std::shared_ptr<const serve::ModelSnapshot> TrainAndSnapshot(
    const Dataset& dataset, uint64_t version, const char* source,
    uint64_t seed) {
  Rng rng(seed);
  MfConfig config;
  MatrixFactorization model(dataset.num_users, dataset.num_items, config,
                            MeanRatingValue(dataset.ratings), &rng);
  TrainOptions options;
  options.epochs = 40;
  const TrainResult result = TrainModel(&model, dataset.ratings, options);
  std::printf("  trained %s: %zu ratings, final loss %.4f\n", source,
              dataset.ratings.size(), result.final_loss);
  serve::SnapshotOptions snapshot_options;
  snapshot_options.version = version;
  snapshot_options.source = source;
  return serve::ModelSnapshot::FromModel(&model, dataset, snapshot_options);
}

/// Mean rank (1 = best) of `target` over the full catalog for the
/// audience, under the serving tie-break order (score desc, item asc).
double MeanTargetRank(const serve::ModelSnapshot& snapshot,
                      const std::vector<int64_t>& audience, int64_t target) {
  double total = 0.0;
  for (int64_t user : audience) {
    const serve::ScoredItem target_entry{target, snapshot.Score(user, target)};
    int64_t rank = 1;
    for (int64_t item = 0; item < snapshot.num_items(); ++item) {
      if (item == target) continue;
      const serve::ScoredItem candidate{item, snapshot.Score(user, item)};
      if (serve::RanksBefore(candidate, target_entry)) ++rank;
    }
    total += static_cast<double>(rank);
  }
  return total / static_cast<double>(audience.size());
}

int Main() {
  // --- 1. Data + market.
  const uint64_t seed = 7;
  Dataset base = MakeExperimentDataset("ciao", /*scale=*/0.08, /*seed=*/42);
  std::printf("dataset: %s\n", base.Summary().c_str());
  Rng rng(seed);
  const std::vector<Demographics> players =
      SampleDemographics(base, /*num_players=*/1, &rng);
  const Demographics& market = players[0];
  const int64_t target = market.target_item;
  std::printf("target item %lld, audience of %zu users\n\n",
              static_cast<long long>(target), market.target_audience.size());

  // --- 2. Train on clean data, publish snapshot v1. The engine runs
  // with production-shaped overload protection: a bounded queue (clients
  // retry rejected requests with jittered backoff) and an enforced
  // per-request deadline.
  serve::EngineOptions engine_options;
  engine_options.max_queue = 256;
  engine_options.deadline_us = 100000;
  serve::ServingEngine engine(engine_options);
  auto clean = TrainAndSnapshot(base, /*version=*/1, "mf-clean", seed);
  engine.Publish(clean);

  // --- 3. Client traffic: random audience members ask for top-10 lists;
  // we tally how often the target item is actually served, per snapshot
  // version, to watch the swap take effect mid-traffic.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> served_by_version[3] = {{0}, {0}, {0}};
  std::atomic<int64_t> target_hits_by_version[3] = {{0}, {0}, {0}};
  std::atomic<int64_t> client_retries{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      Rng client_rng(100 + static_cast<uint64_t>(c));
      serve::RetryingClient client(&engine, serve::RetryPolicy{},
                                   200 + static_cast<uint64_t>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        serve::ServeRequest request;
        request.user = market.target_audience[static_cast<size_t>(
            client_rng.UniformInt(static_cast<int64_t>(
                market.target_audience.size())))];
        const serve::ServeResponse response = client.Serve(request);
        // Only full-fidelity served lists count toward the attack tally —
        // rejected/shed/degraded responses don't reflect the model.
        if (!response.ok() || response.served_degraded) continue;
        if (response.snapshot_version > 2) continue;
        served_by_version[response.snapshot_version].fetch_add(1);
        for (int64_t item : response.items) {
          if (item == target) {
            target_hits_by_version[response.snapshot_version].fetch_add(1);
            break;
          }
        }
      }
      client_retries.fetch_add(client.retries());
    });
  }

  // --- 4. Poison, retrain, hot-swap v2 while the clients are running.
  Dataset poisoned = base;
  RandomAttack attack;
  const AttackBudget budget = AttackBudget::FromLevel(5, base);
  Rng attack_rng(seed + 1);
  const PoisonPlan plan =
      attack.Execute(&poisoned, market, budget, &attack_rng);
  std::printf("\npoisoned with %s: %s\n", attack.name().c_str(),
              plan.Summary().c_str());
  auto dirty = TrainAndSnapshot(poisoned, /*version=*/2, "mf-poisoned", seed);
  engine.Publish(dirty);

  // Let the clients observe the new snapshot for a moment, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  engine.Stop();

  // --- 5. Report.
  const double rank_before =
      MeanTargetRank(*clean, market.target_audience, target);
  const double rank_after =
      MeanTargetRank(*dirty, market.target_audience, target);
  std::printf("\ntarget item mean rank over %lld items: %.1f -> %.1f\n",
              static_cast<long long>(base.num_items), rank_before,
              rank_after);
  for (int version = 1; version <= 2; ++version) {
    const int64_t served = served_by_version[version].load();
    const int64_t hits = target_hits_by_version[version].load();
    std::printf(
        "snapshot v%d served %lld request(s); target in top-10 of %lld\n",
        version, static_cast<long long>(served),
        static_cast<long long>(hits));
  }
  const serve::EngineStats stats = engine.Stats();
  std::printf(
      "engine: %lld request(s), %lld batch(es), mean batch %.1f, "
      "p50 %lld us, p99 %lld us, %lld publish(es)\n",
      static_cast<long long>(stats.requests),
      static_cast<long long>(stats.batches), stats.mean_batch_size,
      static_cast<long long>(stats.p50_us),
      static_cast<long long>(stats.p99_us),
      static_cast<long long>(stats.publishes));
  std::printf(
      "overload: %lld rejected, %lld shed, %lld degraded, %lld cancelled, "
      "%lld retry(ies), %lld publish failure(s)\n",
      static_cast<long long>(stats.rejected),
      static_cast<long long>(stats.shed),
      static_cast<long long>(stats.degraded),
      static_cast<long long>(stats.cancelled),
      static_cast<long long>(client_retries.load()),
      static_cast<long long>(stats.publish_failures));
  std::printf(
      "\nThe hot swap happened mid-traffic: responses under v1 and v2 were\n"
      "served from the same engine with no pause, and the poisoned model\n"
      "pushes the target item up the audience's rankings.\n");
  return 0;
}

}  // namespace
}  // namespace msopds

int main() { return msopds::Main(); }
