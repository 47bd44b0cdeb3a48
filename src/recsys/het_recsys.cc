#include "recsys/het_recsys.h"

#include <cmath>

#include "recsys/embedding.h"
#include "util/logging.h"

namespace msopds {

HetRecSys::HetRecSys(const Dataset& dataset, const HetRecSysConfig& config,
                     Rng* rng)
    : config_(config),
      num_users_(dataset.num_users),
      num_items_(dataset.num_items) {
  MSOPDS_CHECK(rng != nullptr);
  const Status status = dataset.Validate();
  MSOPDS_CHECK(status.ok()) << status.ToString();

  MSOPDS_CHECK_GE(config.num_layers, 1);
  params_.push_back(MakeEmbedding(num_users_, config.embedding_dim,
                                  config.init_stddev, rng));
  params_.push_back(MakeEmbedding(num_items_, config.embedding_dim,
                                  config.init_stddev, rng));
  for (int layer = 0; layer < config.num_layers; ++layer) {
    params_.push_back(
        MakeProjection(2 * config.embedding_dim, config.embedding_dim, rng));
    params_.push_back(
        MakeProjection(2 * config.embedding_dim, config.embedding_dim, rng));
  }

  std::vector<int64_t> dst, src;
  dataset.social.AppendDirectedEdges(&dst, &src);
  social_dst_ = MakeIndex(std::move(dst));
  social_src_ = MakeIndex(std::move(src));

  std::vector<int64_t> idst, isrc;
  dataset.items.AppendDirectedEdges(&idst, &isrc);
  item_dst_ = MakeIndex(std::move(idst));
  item_src_ = MakeIndex(std::move(isrc));
}

Variable HetRecSys::Aggregate(const Variable& features, const IndexVec& dst,
                              const IndexVec& src, int64_t num_nodes) const {
  const int64_t num_edges = dst->size();
  if (num_edges == 0) {
    return Constant(
        Tensor::Zeros({num_nodes, features.value().dim(1)}));
  }
  Variable weights;
  if (config_.use_attention) {
    const double inv_sqrt_dim =
        1.0 / std::sqrt(static_cast<double>(config_.embedding_dim));
    Variable scores =
        ScalarMul(EdgeDot(features, features, dst, src), inv_sqrt_dim);
    weights = SegmentSoftmax(scores, dst, num_nodes);
  } else {
    // Degree-normalized mean.
    std::vector<int64_t> degree(static_cast<size_t>(num_nodes), 0);
    for (int64_t e = 0; e < num_edges; ++e)
      ++degree[static_cast<size_t>((*dst)[e])];
    Tensor w({num_edges});
    for (int64_t e = 0; e < num_edges; ++e) {
      w.at(e) =
          1.0 / static_cast<double>(degree[static_cast<size_t>((*dst)[e])]);
    }
    weights = Constant(std::move(w));
  }
  return SpMM(dst, src, weights, features, num_nodes);
}

HetRecSys::FinalEmbeddings HetRecSys::Forward() const {
  Variable users = params_[0];
  Variable items = params_[1];
  for (int layer = 0; layer < config_.num_layers; ++layer) {
    const Variable& w_user = params_[static_cast<size_t>(2 + 2 * layer)];
    const Variable& w_item = params_[static_cast<size_t>(3 + 2 * layer)];
    Variable user_agg = Aggregate(users, social_dst_, social_src_, num_users_);
    Variable item_agg = Aggregate(items, item_dst_, item_src_, num_items_);
    users = MatMul(ConcatCols(users, user_agg), w_user);
    items = MatMul(ConcatCols(items, item_agg), w_item);
    const bool is_last = layer + 1 == config_.num_layers;
    if (config_.tanh_between_layers && !is_last) {
      // tanh(x) = 2 sigmoid(2x) - 1, composed from recorded ops.
      users = AddScalar(ScalarMul(Sigmoid(ScalarMul(users, 2.0)), 2.0), -1.0);
      items = AddScalar(ScalarMul(Sigmoid(ScalarMul(items, 2.0)), 2.0), -1.0);
    }
  }
  FinalEmbeddings final;
  final.users = users;
  final.items = items;
  return final;
}

Variable HetRecSys::TrainingLoss(const std::vector<Rating>& ratings) {
  MSOPDS_CHECK(!ratings.empty());
  const FinalEmbeddings final = Forward();

  std::vector<int64_t> users, items;
  Tensor targets({static_cast<int64_t>(ratings.size())});
  users.reserve(ratings.size());
  items.reserve(ratings.size());
  for (size_t k = 0; k < ratings.size(); ++k) {
    users.push_back(ratings[k].user);
    items.push_back(ratings[k].item);
    targets.at(static_cast<int64_t>(k)) = ratings[k].value;
  }

  Variable user_rows = GatherRows(final.users, MakeIndex(std::move(users)));
  Variable item_rows = GatherRows(final.items, MakeIndex(std::move(items)));
  Variable predictions =
      AddScalar(PairDot(user_rows, item_rows), config_.prediction_offset);
  Variable errors = Sub(predictions, Constant(std::move(targets)));
  Variable loss = Mean(Square(errors));

  if (config_.l2 > 0.0) {
    Variable reg = SquaredNorm(params_[0]);
    for (size_t i = 1; i < params_.size(); ++i) {
      reg = Add(reg, SquaredNorm(params_[i]));
    }
    loss = Add(loss, ScalarMul(reg, config_.l2));
  }
  return loss;
}

Tensor HetRecSys::PredictPairs(const std::vector<int64_t>& users,
                               const std::vector<int64_t>& items) {
  MSOPDS_CHECK_EQ(users.size(), items.size());
  if (users.empty()) return Tensor::Zeros({0});
  const FinalEmbeddings final = Forward();
  Variable user_rows = GatherRows(final.users, MakeIndex(users));
  Variable item_rows = GatherRows(final.items, MakeIndex(items));
  Variable predictions =
      AddScalar(PairDot(user_rows, item_rows), config_.prediction_offset);
  return predictions.value();
}

ServingParams HetRecSys::ExportServingParams() {
  const FinalEmbeddings final = Forward();
  ServingParams out;
  out.user_factors = final.users.value();
  out.item_factors = final.items.value();
  out.offset = config_.prediction_offset;
  return out;
}

}  // namespace msopds
