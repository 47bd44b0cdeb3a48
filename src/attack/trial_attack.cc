#include "attack/trial_attack.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "attack/baselines.h"
#include "recsys/trainer.h"
#include "tensor/grad.h"
#include "util/logging.h"

namespace msopds {
namespace {

struct ItemStats {
  std::vector<double> mean;
  std::vector<double> stddev;
};

ItemStats FitItemStats(const Dataset& world) {
  ItemStats stats;
  stats.mean.assign(static_cast<size_t>(world.num_items), 0.0);
  stats.stddev.assign(static_cast<size_t>(world.num_items), 1.0);
  std::vector<int64_t> count(static_cast<size_t>(world.num_items), 0);
  for (const Rating& r : world.ratings) {
    stats.mean[static_cast<size_t>(r.item)] += r.value;
    ++count[static_cast<size_t>(r.item)];
  }
  const RatingDistribution global = FitRatingDistribution(world);
  std::vector<double> sq(static_cast<size_t>(world.num_items), 0.0);
  for (int64_t i = 0; i < world.num_items; ++i) {
    if (count[static_cast<size_t>(i)] > 0) {
      stats.mean[static_cast<size_t>(i)] /=
          static_cast<double>(count[static_cast<size_t>(i)]);
    } else {
      stats.mean[static_cast<size_t>(i)] = global.mean;
    }
  }
  for (const Rating& r : world.ratings) {
    const double d = r.value - stats.mean[static_cast<size_t>(r.item)];
    sq[static_cast<size_t>(r.item)] += d * d;
  }
  for (int64_t i = 0; i < world.num_items; ++i) {
    if (count[static_cast<size_t>(i)] > 1) {
      stats.stddev[static_cast<size_t>(i)] = std::max(
          0.3, std::sqrt(sq[static_cast<size_t>(i)] /
                         static_cast<double>(count[static_cast<size_t>(i)])));
    } else {
      stats.stddev[static_cast<size_t>(i)] = std::max(0.3, global.stddev);
    }
  }
  return stats;
}

double DotTensors(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (int64_t j = 0; j < a[i].size(); ++j) {
      total += a[i].data()[j] * b[i].data()[j];
    }
  }
  return total;
}

}  // namespace

TrialAttack::TrialAttack(TrialOptions options) : options_(options) {}

PoisonPlan TrialAttack::Execute(Dataset* world, const Demographics& demo,
                                const AttackBudget& budget, Rng* rng) {
  const int64_t num_real_users = world->num_users;
  auto [fakes, plan] = InjectFakeUsers(world, demo, budget);

  // --- Influence module: train an MF surrogate on the current world. ---
  double mean = 3.0;
  if (!world->ratings.empty()) {
    mean = 0.0;
    for (const Rating& r : world->ratings) mean += r.value;
    mean /= static_cast<double>(world->ratings.size());
  }
  MatrixFactorization surrogate_model(world->num_users, world->num_items,
                                      options_.mf, mean, rng);
  TrainOptions training;
  training.epochs = options_.surrogate_epochs;
  training.learning_rate = options_.surrogate_learning_rate;
  TrainModel(&surrogate_model, world->ratings, training);
  const MfParams surrogate = surrogate_model.Bundle();
  const std::vector<Variable> leaves = surrogate.AsVector();

  // Gradient of the injection objective w.r.t. surrogate parameters.
  std::vector<Tensor> ia_gradient;
  {
    std::vector<int64_t> users(static_cast<size_t>(num_real_users));
    std::iota(users.begin(), users.end(), 0);
    std::vector<int64_t> items(users.size(), demo.target_item);
    Variable loss = Neg(
        Mean(MfPredict(surrogate, MakeIndex(std::move(users)),
                       MakeIndex(std::move(items)))));
    ia_gradient = GradValues(loss, leaves);
  }

  // --- Generator + discriminator: candidate profiles per fake account. ---
  const ItemStats stats = FitItemStats(*world);
  const int64_t fillers =
      std::min<int64_t>(budget.filler_items_per_fake, world->num_items - 1);

  for (int64_t fake : fakes) {
    double best_score = -1e300;
    std::vector<std::pair<int64_t, double>> best_profile;
    for (int candidate = 0; candidate < options_.candidates_per_fake;
         ++candidate) {
      // Generator: sample items uniformly, values near per-item means.
      std::vector<std::pair<int64_t, double>> profile;
      double realism = 0.0;
      for (int64_t item : rng->SampleWithoutReplacement(
               world->num_items, std::min(fillers, world->num_items))) {
        if (item == demo.target_item) continue;
        const double sigma = stats.stddev[static_cast<size_t>(item)];
        const double value = std::round(std::min(
            kMaxRating,
            std::max(kMinRating,
                     rng->Normal(stats.mean[static_cast<size_t>(item)],
                                 sigma))));
        profile.emplace_back(item, value);
        const double z =
            (value - stats.mean[static_cast<size_t>(item)]) / sigma;
        realism -= 0.5 * z * z;
      }
      if (profile.empty()) continue;
      realism /= static_cast<double>(profile.size());

      // Influence: an SGD step on this profile's loss moves the injection
      // objective by -eta * <grad L_profile, grad L_IA>; larger dot means
      // the profile helps the attack more.
      std::vector<int64_t> users, items;
      Tensor targets({static_cast<int64_t>(profile.size())});
      for (size_t k = 0; k < profile.size(); ++k) {
        users.push_back(fake);
        items.push_back(profile[k].first);
        targets.at(static_cast<int64_t>(k)) = profile[k].second;
      }
      Variable profile_loss =
          MfLoss(surrogate, MakeIndex(std::move(users)),
                 MakeIndex(std::move(items)), Constant(std::move(targets)),
                 /*l2=*/0.0);
      const std::vector<Tensor> profile_gradient =
          GradValues(profile_loss, leaves);
      const double influence = DotTensors(profile_gradient, ia_gradient);

      const double score = influence + options_.realism_weight * realism;
      if (score > best_score) {
        best_score = score;
        best_profile = std::move(profile);
      }
    }
    for (const auto& [item, value] : best_profile) {
      plan.actions.push_back({ActionType::kRating, fake, item, value});
    }
  }
  plan.ApplyTo(world);
  return plan;
}

}  // namespace msopds
