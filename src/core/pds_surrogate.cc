#include "core/pds_surrogate.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/grad.h"
#include "util/fault.h"
#include "util/health.h"
#include "util/logging.h"

namespace msopds {
namespace {

Tensor RandomTensor(std::vector<int64_t> shape, double stddev, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = rng->Normal(0.0, stddev);
  return t;
}

Tensor GlorotTensor(int64_t rows, int64_t cols, Rng* rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  Tensor t({rows, cols});
  for (int64_t i = 0; i < t.size(); ++i)
    t.data()[i] = rng->Uniform(-limit, limit);
  return t;
}

}  // namespace

PdsSurrogate::PdsSurrogate(const Dataset& world,
                           std::vector<const CapacitySet*> capacities,
                           const PdsConfig& config, Rng* rng)
    : config_(config),
      capacities_(std::move(capacities)),
      num_users_(world.num_users),
      num_items_(world.num_items) {
  MSOPDS_CHECK(rng != nullptr);
  MSOPDS_CHECK(!capacities_.empty());
  MSOPDS_CHECK_GT(config.inner_steps, 0);

  const int64_t players = num_players();

  // Upper bound on candidate edges of either type; each contributes two
  // directed edges. Used to size the edge arrays once up front.
  size_t candidate_upper = 0;
  for (const CapacitySet* capacity : capacities_) {
    candidate_upper += capacity->actions().size();
  }

  // --- Social graph bundle: base edges then candidates per player. ---
  {
    std::vector<int64_t> dst, src;
    world.social.AppendDirectedEdges(&dst, &src);
    dst.reserve(dst.size() + 2 * candidate_upper);
    src.reserve(src.size() + 2 * candidate_upper);
    social_.num_base_edges = static_cast<int64_t>(dst.size());
    social_.num_nodes = num_users_;
    for (int64_t p = 0; p < players; ++p) {
      const auto& actions = capacities_[static_cast<size_t>(p)]->actions();
      std::vector<int64_t> gather;
      gather.reserve(2 * actions.size());
      for (size_t k = 0; k < actions.size(); ++k) {
        if (actions[k].type != ActionType::kSocialEdge) continue;
        MSOPDS_CHECK_LT(actions[k].a, num_users_);
        MSOPDS_CHECK_LT(actions[k].b, num_users_);
        // Both directions, each regulated by the same x-hat element.
        dst.push_back(actions[k].a);
        src.push_back(actions[k].b);
        dst.push_back(actions[k].b);
        src.push_back(actions[k].a);
        gather.push_back(static_cast<int64_t>(k));
        gather.push_back(static_cast<int64_t>(k));
      }
      social_.player_gather.push_back(MakeIndex(std::move(gather)));
    }
    std::vector<int64_t> degree(static_cast<size_t>(num_users_), 0);
    for (int64_t d : dst) ++degree[static_cast<size_t>(d)];
    social_.coefficients = Tensor({static_cast<int64_t>(dst.size())});
    for (size_t e = 0; e < dst.size(); ++e) {
      social_.coefficients.at(static_cast<int64_t>(e)) =
          1.0 / static_cast<double>(degree[static_cast<size_t>(dst[e])]);
    }
    social_.dst = MakeIndex(std::move(dst));
    social_.src = MakeIndex(std::move(src));
  }

  // --- Item graph bundle. ---
  {
    std::vector<int64_t> dst, src;
    world.items.AppendDirectedEdges(&dst, &src);
    dst.reserve(dst.size() + 2 * candidate_upper);
    src.reserve(src.size() + 2 * candidate_upper);
    item_.num_base_edges = static_cast<int64_t>(dst.size());
    item_.num_nodes = num_items_;
    for (int64_t p = 0; p < players; ++p) {
      const auto& actions = capacities_[static_cast<size_t>(p)]->actions();
      std::vector<int64_t> gather;
      gather.reserve(2 * actions.size());
      for (size_t k = 0; k < actions.size(); ++k) {
        if (actions[k].type != ActionType::kItemEdge) continue;
        MSOPDS_CHECK_LT(actions[k].a, num_items_);
        MSOPDS_CHECK_LT(actions[k].b, num_items_);
        dst.push_back(actions[k].a);
        src.push_back(actions[k].b);
        dst.push_back(actions[k].b);
        src.push_back(actions[k].a);
        gather.push_back(static_cast<int64_t>(k));
        gather.push_back(static_cast<int64_t>(k));
      }
      item_.player_gather.push_back(MakeIndex(std::move(gather)));
    }
    std::vector<int64_t> degree(static_cast<size_t>(num_items_), 0);
    for (int64_t d : dst) ++degree[static_cast<size_t>(d)];
    item_.coefficients = Tensor({static_cast<int64_t>(dst.size())});
    for (size_t e = 0; e < dst.size(); ++e) {
      item_.coefficients.at(static_cast<int64_t>(e)) =
          1.0 / static_cast<double>(degree[static_cast<size_t>(dst[e])]);
    }
    item_.dst = MakeIndex(std::move(dst));
    item_.src = MakeIndex(std::move(src));
  }

  // --- Base ratings. ---
  {
    std::vector<int64_t> users, items;
    base_targets_ = Tensor({static_cast<int64_t>(world.ratings.size())});
    users.reserve(world.ratings.size());
    items.reserve(world.ratings.size());
    for (size_t k = 0; k < world.ratings.size(); ++k) {
      users.push_back(world.ratings[k].user);
      items.push_back(world.ratings[k].item);
      base_targets_.at(static_cast<int64_t>(k)) = world.ratings[k].value;
    }
    base_users_ = MakeIndex(std::move(users));
    base_items_ = MakeIndex(std::move(items));
  }

  // --- Candidate poison ratings per player. ---
  poison_users_.resize(static_cast<size_t>(players));
  poison_items_.resize(static_cast<size_t>(players));
  poison_targets_.resize(static_cast<size_t>(players));
  poison_gather_.resize(static_cast<size_t>(players));
  for (int64_t p = 0; p < players; ++p) {
    std::vector<int64_t> users, items, gather;
    std::vector<double> targets;
    const auto& actions = capacities_[static_cast<size_t>(p)]->actions();
    users.reserve(actions.size());
    items.reserve(actions.size());
    targets.reserve(actions.size());
    gather.reserve(actions.size());
    for (size_t k = 0; k < actions.size(); ++k) {
      if (actions[k].type != ActionType::kRating) continue;
      MSOPDS_CHECK_LT(actions[k].a, num_users_);
      MSOPDS_CHECK_LT(actions[k].b, num_items_);
      users.push_back(actions[k].a);
      items.push_back(actions[k].b);
      targets.push_back(actions[k].rating);
      gather.push_back(static_cast<int64_t>(k));
    }
    poison_users_[static_cast<size_t>(p)] = MakeIndex(std::move(users));
    poison_items_[static_cast<size_t>(p)] = MakeIndex(std::move(items));
    poison_targets_[static_cast<size_t>(p)] =
        Tensor::FromVector(std::move(targets));
    poison_gather_[static_cast<size_t>(p)] = MakeIndex(std::move(gather));
  }

  // --- Fixed theta_0: embeddings then per-layer projections. ---
  MSOPDS_CHECK_GE(config.num_layers, 1);
  theta_init_.push_back(
      RandomTensor({num_users_, config.embedding_dim}, config.init_stddev,
                   rng));
  theta_init_.push_back(
      RandomTensor({num_items_, config.embedding_dim}, config.init_stddev,
                   rng));
  for (int layer = 0; layer < config.num_layers; ++layer) {
    theta_init_.push_back(
        GlorotTensor(2 * config.embedding_dim, config.embedding_dim, rng));
    theta_init_.push_back(
        GlorotTensor(2 * config.embedding_dim, config.embedding_dim, rng));
  }
}

Variable PdsSurrogate::EdgeWeights(const GraphBundle& bundle,
                                   const std::vector<Variable>& xhats) const {
  MSOPDS_CHECK_EQ(static_cast<int64_t>(xhats.size()), num_players());
  Variable weights = Constant(Tensor::Ones({bundle.num_base_edges}));
  for (size_t p = 0; p < xhats.size(); ++p) {
    const IndexVec& gather = bundle.player_gather[p];
    if (gather->empty()) continue;
    weights = Concat1(weights, Gather1(xhats[p], gather));
  }
  return Mul(weights, Constant(bundle.coefficients.Clone()));
}

PdsSurrogate::Outcome PdsSurrogate::Forward(
    const std::vector<Variable>& theta, const Variable& social_weights,
    const Variable& item_weights) const {
  Variable users = theta[0];
  Variable items = theta[1];
  for (int layer = 0; layer < config_.num_layers; ++layer) {
    const Variable& w_user = theta[static_cast<size_t>(2 + 2 * layer)];
    const Variable& w_item = theta[static_cast<size_t>(3 + 2 * layer)];
    Variable user_agg =
        social_weights.value().size() > 0
            ? SpMM(social_.dst, social_.src, social_weights, users,
                   num_users_)
            : Constant(Tensor::Zeros({num_users_, config_.embedding_dim}));
    Variable item_agg =
        item_weights.value().size() > 0
            ? SpMM(item_.dst, item_.src, item_weights, items, num_items_)
            : Constant(Tensor::Zeros({num_items_, config_.embedding_dim}));
    users = MatMul(ConcatCols(users, user_agg), w_user);
    items = MatMul(ConcatCols(items, item_agg), w_item);
  }
  Outcome outcome;
  outcome.user_final = users;
  outcome.item_final = items;
  return outcome;
}

Variable PdsSurrogate::TrainLoss(const std::vector<Variable>& theta,
                                 const Variable& social_weights,
                                 const Variable& item_weights,
                                 const std::vector<Variable>& xhats) const {
  const Outcome outcome = Forward(theta, social_weights, item_weights);

  // Base term: mean squared error over the public ratings.
  Variable base_preds =
      AddScalar(PairDot(GatherRows(outcome.user_final, base_users_),
                        GatherRows(outcome.item_final, base_items_)),
                config_.prediction_offset);
  Variable loss = Mean(Square(Sub(base_preds, Constant(base_targets_.Clone()))));

  // Poison terms of Eq. (16), x-hat modulated, scaled to the base mean.
  const double scale =
      1.0 / static_cast<double>(std::max<int64_t>(1, base_targets_.size()));
  for (size_t p = 0; p < xhats.size(); ++p) {
    if (poison_gather_[p]->empty()) continue;
    Variable preds =
        AddScalar(PairDot(GatherRows(outcome.user_final, poison_users_[p]),
                          GatherRows(outcome.item_final, poison_items_[p])),
                  config_.prediction_offset);
    Variable squared =
        Square(Sub(preds, Constant(poison_targets_[p].Clone())));
    Variable gathered = Gather1(xhats[p], poison_gather_[p]);
    loss = Add(loss, ScalarMul(Sum(Mul(gathered, squared)), scale));
  }

  if (config_.l2 > 0.0) {
    Variable reg = SquaredNorm(theta[0]);
    for (size_t i = 1; i < theta.size(); ++i)
      reg = Add(reg, SquaredNorm(theta[i]));
    loss = Add(loss, ScalarMul(reg, config_.l2));
  }
  return loss;
}

PdsSurrogate::Outcome PdsSurrogate::TrainUnrolled(
    const std::vector<Variable>& xhats) const {
  MSOPDS_CHECK_EQ(static_cast<int64_t>(xhats.size()), num_players());
  const Variable social_weights = EdgeWeights(social_, xhats);
  const Variable item_weights = EdgeWeights(item_, xhats);

  // theta_0 leaves (fixed initialization, fresh nodes per call).
  std::vector<Variable> theta;
  theta.reserve(theta_init_.size());
  for (const Tensor& init : theta_init_) theta.push_back(Param(init.Clone()));

  // Recorded inner loop (Algorithm 1 steps 5-6).
  for (int step = 0; step < config_.inner_steps; ++step) {
    Variable loss = TrainLoss(theta, social_weights, item_weights, xhats);
    if (FaultInjector::Global().ShouldCorruptSurrogateStep()) {
      // Inject the NaN through the recorded graph so the corruption
      // propagates into gradients exactly like a real numerical failure
      // of the inner loop (resilience drills; no-op when disabled).
      loss = AddScalar(loss, std::numeric_limits<double>::quiet_NaN());
    }
    // Numerical-health probe: a non-finite inner loss poisons every
    // derivative taken through this graph, so record it for the outer
    // loop's diagnostics (the MSO guards then drop the resulting step).
    if (!std::isfinite(loss.value().item())) {
      if (non_finite_inner_events_ == 0) {
        MSOPDS_LOG(Warning)
            << "PDS inner loop: non-finite loss at step " << step;
      }
      ++non_finite_inner_events_;
    }
    const std::vector<Variable> grads = Grad(loss, theta);
    for (size_t i = 0; i < theta.size(); ++i) {
      theta[i] = Sub(theta[i],
                     ScalarMul(grads[i], config_.inner_learning_rate));
    }
  }
  return Forward(theta, social_weights, item_weights);
}

Variable PdsSurrogate::Predict(const Outcome& outcome,
                               const std::vector<int64_t>& users,
                               const std::vector<int64_t>& items) const {
  MSOPDS_CHECK_EQ(users.size(), items.size());
  return AddScalar(PairDot(GatherRows(outcome.user_final, MakeIndex(users)),
                           GatherRows(outcome.item_final, MakeIndex(items))),
                   config_.prediction_offset);
}

}  // namespace msopds
