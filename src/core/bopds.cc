#include "core/bopds.h"

#include "attack/baselines.h"
#include "attack/importance_vector.h"
#include "core/losses.h"
#include "tensor/grad.h"
#include "util/arena.h"
#include "util/logging.h"

namespace msopds {

Bopds::Bopds(BopdsConfig config) : config_(std::move(config)) {
  MSOPDS_CHECK_GT(config_.step, 0.0);
  MSOPDS_CHECK_GT(config_.iterations, 0);
}

PoisonPlan Bopds::Execute(Dataset* world, const Demographics& demo,
                          const AttackBudget& budget, Rng* rng) {
  MSOPDS_CHECK(world != nullptr);
  MSOPDS_CHECK(rng != nullptr);
  losses_.clear();

  PoisonPlan plan;
  std::vector<int64_t> fakes;
  if (config_.comprehensive && config_.inject_fake_accounts &&
      budget.num_fake_users > 0) {
    auto injected = InjectFakeUsers(world, demo, budget);
    fakes = std::move(injected.first);
    plan = std::move(injected.second);
    plan.ApplyTo(world);
  }

  CapacitySet capacity =
      config_.comprehensive
          ? CapacitySet::MakeComprehensive(*world, demo, fakes,
                                           config_.preset_rating)
          : CapacitySet::MakeRatingOnly(*world, demo, config_.preset_rating);
  if (capacity.size() == 0) return plan;

  const Budget capacity_budget =
      capacity.ClampBudget(config_.comprehensive
                               ? budget.ToCapacityBudget()
                               : Budget{budget.hired_raters, 0, 0});

  Rng surrogate_rng = rng->Split();
  PdsSurrogate surrogate(*world, {&capacity}, config_.pds, &surrogate_rng);

  std::vector<int64_t> target_users, target_items;
  std::vector<int64_t> compete_users, compete_items;
  for (int64_t user : demo.target_audience) {
    target_users.push_back(user);
    target_items.push_back(demo.target_item);
    for (int64_t item : demo.compete_items) {
      compete_users.push_back(user);
      compete_items.push_back(item);
    }
  }
  const int64_t num_compete =
      static_cast<int64_t>(demo.compete_items.size());

  Rng init_rng = rng->Split();
  ImportanceVector importance(&capacity, &init_rng);
  // One arena region per planning run: tape buffers recycle across
  // iterations, free lists trim when planning finishes.
  ArenaRegion region;
  for (int iteration = 0; iteration < config_.iterations; ++iteration) {
    Variable xhat = importance.BinarizedParam(capacity_budget);
    const PdsSurrogate::Outcome outcome = surrogate.TrainUnrolled({xhat});
    Variable target_preds =
        surrogate.Predict(outcome, target_users, target_items);
    Variable compete_preds =
        surrogate.Predict(outcome, compete_users, compete_items);
    Variable loss = ComprehensiveLossFromPredictions(
        target_preds, compete_preds, num_compete, config_.demote);
    losses_.push_back(loss.value().item());
    importance.ApplyUpdate(GradValues(loss, {xhat})[0], config_.step);
  }

  PoisonPlan planned = importance.ExtractPlan(capacity_budget);
  planned.ApplyTo(world);
  plan.actions.insert(plan.actions.end(), planned.actions.begin(),
                      planned.actions.end());
  return plan;
}

}  // namespace msopds
