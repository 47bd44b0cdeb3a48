#include "attack/poisonrec_attack.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "attack/baselines.h"
#include "recsys/trainer.h"
#include "util/logging.h"

namespace msopds {
namespace {

// Trains a fresh MF surrogate on `ratings` and returns the target item's
// mean predicted rating over the real users: the black-box reward.
double BlackBoxReward(const std::vector<Rating>& ratings, int64_t num_users,
                      int64_t num_items, int64_t num_real_users,
                      int64_t target_item, const PoisonRecOptions& options,
                      Rng* rng) {
  double mean = 3.0;
  if (!ratings.empty()) {
    mean = 0.0;
    for (const Rating& r : ratings) mean += r.value;
    mean /= static_cast<double>(ratings.size());
  }
  MatrixFactorization surrogate(num_users, num_items, options.mf, mean, rng);
  TrainOptions training;
  training.epochs = options.surrogate_epochs;
  training.learning_rate = options.surrogate_learning_rate;
  TrainModel(&surrogate, ratings, training);

  std::vector<int64_t> qu(static_cast<size_t>(num_real_users));
  std::iota(qu.begin(), qu.end(), 0);
  std::vector<int64_t> qi(qu.size(), target_item);
  return Mean(MfPredict(surrogate.Bundle(), MakeIndex(std::move(qu)),
                        MakeIndex(std::move(qi))))
      .value()
      .item();
}

// Samples `count` distinct items from the softmax over propensities.
std::vector<int64_t> SamplePolicy(const std::vector<double>& logits,
                                  int64_t count, int64_t exclude, Rng* rng) {
  std::vector<double> weights(logits.size());
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  for (size_t i = 0; i < logits.size(); ++i) {
    weights[i] = std::exp(logits[i] - max_logit);
  }
  if (exclude >= 0) weights[static_cast<size_t>(exclude)] = 0.0;
  std::vector<int64_t> chosen;
  for (int64_t k = 0; k < count; ++k) {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total <= 0.0) break;
    double u = rng->Uniform(0.0, total);
    size_t pick = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
      u -= weights[i];
      if (u <= 0.0) {
        pick = i;
        break;
      }
    }
    chosen.push_back(static_cast<int64_t>(pick));
    weights[pick] = 0.0;  // without replacement
  }
  return chosen;
}

}  // namespace

PoisonRecAttack::PoisonRecAttack(PoisonRecOptions options)
    : options_(options) {}

PoisonPlan PoisonRecAttack::Execute(Dataset* world, const Demographics& demo,
                                    const AttackBudget& budget, Rng* rng) {
  const int64_t num_real_users = world->num_users;
  auto [fakes, plan] = InjectFakeUsers(world, demo, budget);
  const int64_t fillers =
      std::min<int64_t>(budget.filler_items_per_fake, world->num_items - 1);
  if (fakes.empty() || fillers <= 0) {
    plan.ApplyTo(world);
    return plan;
  }

  const RatingDistribution dist = FitRatingDistribution(*world);
  std::vector<double> logits(static_cast<size_t>(world->num_items), 0.0);
  double baseline = 0.0;
  bool have_baseline = false;

  // The base episode ratings: the world plus the fakes' target 5-stars.
  std::vector<Rating> base_ratings = world->ratings;
  for (int64_t fake : fakes) {
    base_ratings.push_back({fake, demo.target_item, budget.promote_rating});
  }

  for (int episode = 0; episode < options_.episodes; ++episode) {
    // One shared filler set per episode (PoisonRec's session abstraction
    // collapsed to a single action set for tractability).
    const std::vector<int64_t> chosen =
        SamplePolicy(logits, fillers, demo.target_item, rng);
    std::vector<Rating> episode_ratings = base_ratings;
    for (int64_t fake : fakes) {
      for (int64_t item : chosen) {
        episode_ratings.push_back({fake, item, SampleRating(dist, rng)});
      }
    }
    Rng surrogate_rng = rng->Split();
    const double reward = BlackBoxReward(
        episode_ratings, world->num_users, world->num_items, num_real_users,
        demo.target_item, options_, &surrogate_rng);
    if (!have_baseline) {
      baseline = reward;
      have_baseline = true;
    }
    const double advantage = reward - baseline;
    baseline = options_.baseline_momentum * baseline +
               (1.0 - options_.baseline_momentum) * reward;
    for (int64_t item : chosen) {
      logits[static_cast<size_t>(item)] +=
          options_.policy_learning_rate * advantage /
          static_cast<double>(fillers);
    }
  }

  // Final profile: the top-propensity items.
  std::vector<int64_t> ranked(logits.size());
  std::iota(ranked.begin(), ranked.end(), 0);
  std::stable_sort(ranked.begin(), ranked.end(), [&](int64_t a, int64_t b) {
    return logits[static_cast<size_t>(a)] > logits[static_cast<size_t>(b)];
  });
  for (int64_t fake : fakes) {
    int64_t taken = 0;
    for (int64_t item : ranked) {
      if (taken >= fillers) break;
      if (item == demo.target_item) continue;
      plan.actions.push_back(
          {ActionType::kRating, fake, item, SampleRating(dist, rng)});
      ++taken;
    }
  }
  plan.ApplyTo(world);
  return plan;
}

}  // namespace msopds
