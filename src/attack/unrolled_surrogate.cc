#include "attack/unrolled_surrogate.h"

#include <algorithm>

#include "recsys/trainer.h"
#include "tensor/grad.h"
#include "util/arena.h"
#include "util/logging.h"

namespace msopds {
namespace {

// One functional (recorded) SGD step: params' = params - lr * grad.
MfParams FunctionalSgdStep(const MfParams& params, const Variable& loss,
                           double learning_rate) {
  const std::vector<Variable> current = params.AsVector();
  const std::vector<Variable> grads = Grad(loss, current);
  MfParams next;
  next.user_factors =
      Sub(current[0], ScalarMul(grads[0], learning_rate));
  next.item_factors =
      Sub(current[1], ScalarMul(grads[1], learning_rate));
  next.user_bias = Sub(current[2], ScalarMul(grads[2], learning_rate));
  next.item_bias = Sub(current[3], ScalarMul(grads[3], learning_rate));
  next.global_mean = params.global_mean;
  return next;
}

// Detached pre-training of the surrogate on real + fake ratings (never
// empty: there is at least one fake pair). The global mean is a
// Tensor::Sum, so it carries that kernel's chunked fold.
MfParams Pretrain(const Dataset& world, const std::vector<Rating>& ratings,
                  const UnrolledMfOptions& options, Rng* rng) {
  Tensor targets({static_cast<int64_t>(ratings.size())});
  for (size_t k = 0; k < ratings.size(); ++k) {
    targets.at(static_cast<int64_t>(k)) = ratings[k].value;
  }
  MatrixFactorization surrogate(world.num_users, world.num_items, options.mf,
                                targets.Sum() / targets.size(), rng);
  TrainOptions training;
  training.epochs = options.pretrain_epochs;
  training.learning_rate = options.pretrain_learning_rate;
  TrainModel(&surrogate, ratings, training);
  return surrogate.Bundle();
}

}  // namespace

Tensor OptimizeFakeRatings(
    const Dataset& world, const Demographics& demo,
    const std::vector<std::pair<int64_t, int64_t>>& fake_pairs,
    const Tensor& initial_values, int64_t num_real_users,
    const UnrolledMfOptions& options, Rng* rng) {
  MSOPDS_CHECK(!fake_pairs.empty());
  MSOPDS_CHECK_EQ(initial_values.size(),
                  static_cast<int64_t>(fake_pairs.size()));
  MSOPDS_CHECK_GT(num_real_users, 0);
  MSOPDS_CHECK_LE(num_real_users, world.num_users);

  // Index arrays: real ratings first, then the fake pairs. The
  // surrogate's ratings follow the same order, the fakes rated with the
  // current values at each refresh.
  std::vector<Rating> surrogate_ratings = world.ratings;
  std::vector<int64_t> users, items;
  users.reserve(world.ratings.size() + fake_pairs.size());
  items.reserve(users.capacity());
  Tensor real_targets({static_cast<int64_t>(world.ratings.size())});
  for (size_t k = 0; k < world.ratings.size(); ++k) {
    users.push_back(world.ratings[k].user);
    items.push_back(world.ratings[k].item);
    real_targets.at(static_cast<int64_t>(k)) = world.ratings[k].value;
  }
  for (const auto& [fake_user, item] : fake_pairs) {
    users.push_back(fake_user);
    items.push_back(item);
    surrogate_ratings.push_back({fake_user, item, 0.0});
  }
  const IndexVec all_users = MakeIndex(std::move(users));
  const IndexVec all_items = MakeIndex(std::move(items));

  // Injection loss targets: every real user paired with the target item.
  std::vector<int64_t> audience_users, audience_items;
  for (int64_t u = 0; u < num_real_users; ++u) {
    audience_users.push_back(u);
    audience_items.push_back(demo.target_item);
  }
  const IndexVec ia_users = MakeIndex(std::move(audience_users));
  const IndexVec ia_items = MakeIndex(std::move(audience_items));

  Tensor values = initial_values.Clone();
  auto project = [&](Tensor* v) {
    for (int64_t i = 0; i < v->size(); ++i) {
      const bool is_target =
          fake_pairs[static_cast<size_t>(i)].second == demo.target_item;
      double x = is_target ? kMaxRating : v->at(i);
      v->at(i) = std::min(kMaxRating, std::max(kMinRating, x));
    }
  };
  project(&values);

  auto concat_targets = [&](const Variable& fake_values) {
    return Concat1(Constant(real_targets.Clone()), fake_values);
  };

  // One arena region per attack trial: tape buffers recycle across outer
  // iterations and the free lists are trimmed when the trial ends.
  ArenaRegion region;
  MfParams pretrained;
  bool have_pretrained = false;
  for (int outer = 0; outer < options.outer_iterations; ++outer) {
    if (!have_pretrained ||
        (options.refresh_every > 0 && outer % options.refresh_every == 0)) {
      for (int64_t i = 0; i < values.size(); ++i) {
        surrogate_ratings[world.ratings.size() + static_cast<size_t>(i)]
            .value = values.at(i);
      }
      pretrained = Pretrain(world, surrogate_ratings, options, rng);
      have_pretrained = true;
    }

    // Recorded unroll from the pretrained point.
    Variable fake_values = Param(values.Clone());
    MfParams params = pretrained;
    for (int step = 0; step < options.unroll_steps; ++step) {
      Variable loss = MfLoss(params, all_users, all_items,
                             concat_targets(fake_values), options.mf.l2);
      params = FunctionalSgdStep(params, loss, options.inner_learning_rate);
    }
    // L_IA = -(1/|U|) sum_u R(u, target): minimize.
    Variable attack_loss = Neg(Mean(MfPredict(params, ia_users, ia_items)));
    const Tensor gradient = GradValues(attack_loss, {fake_values})[0];
    for (int64_t i = 0; i < values.size(); ++i) {
      values.at(i) -= options.outer_learning_rate * gradient.at(i);
    }
    project(&values);
  }
  return values;
}

}  // namespace msopds
