#include <gtest/gtest.h>

#include <unordered_map>

#include "recsys/metrics.h"

namespace msopds {
namespace {

// A deterministic stub model with scripted predictions per (user, item).
class StubModel : public RatingModel {
 public:
  void Set(int64_t user, int64_t item, double value) {
    table_[user * 1000 + item] = value;
  }
  std::vector<Variable>* MutableParams() override { return &params_; }
  Variable TrainingLoss(const std::vector<Rating>&) override {
    return ConstantScalar(0.0);
  }
  Tensor PredictPairs(const std::vector<int64_t>& users,
                      const std::vector<int64_t>& items) override {
    Tensor out({static_cast<int64_t>(users.size())});
    for (size_t k = 0; k < users.size(); ++k) {
      auto it = table_.find(users[k] * 1000 + items[k]);
      out.at(static_cast<int64_t>(k)) = it == table_.end() ? 0.0 : it->second;
    }
    return out;
  }

 private:
  std::vector<Variable> params_;
  std::unordered_map<int64_t, double> table_;
};

// Audience {0}: target ranks 2nd of {target, c1, c2, c3}.
StubModel RankTwoModel(int64_t target = 10) {
  StubModel model;
  model.Set(0, target, 3.0);
  model.Set(0, 11, 4.0);  // one competitor above
  model.Set(0, 12, 2.0);
  model.Set(0, 13, 1.0);
  return model;
}

TEST(RankingMetricsTest, HitRateRespectsRank) {
  StubModel model = RankTwoModel();
  EXPECT_DOUBLE_EQ(HitRateAtK(&model, {0}, 10, {11, 12, 13}, 1), 0.0);
  EXPECT_DOUBLE_EQ(HitRateAtK(&model, {0}, 10, {11, 12, 13}, 2), 1.0);
}

TEST(RankingMetricsTest, PerfectRankHitsAtOne) {
  StubModel model;
  model.Set(0, 10, 9.0);
  model.Set(0, 11, 1.0);
  EXPECT_DOUBLE_EQ(HitRateAtK(&model, {0}, 10, {11}, 1), 1.0);
}

TEST(RankingMetricsTest, AveragesOverAudience) {
  StubModel model;
  // User 0: target on top. User 1: target below both competitors.
  model.Set(0, 10, 9.0);
  model.Set(0, 11, 1.0);
  model.Set(0, 12, 1.0);
  model.Set(1, 10, 0.5);
  model.Set(1, 11, 2.0);
  model.Set(1, 12, 3.0);
  EXPECT_DOUBLE_EQ(HitRateAtK(&model, {0, 1}, 10, {11, 12}, 1), 0.5);
}

TEST(RankingMetricsTest, TiesFavorTheTarget) {
  StubModel model;
  model.Set(0, 10, 2.0);
  model.Set(0, 11, 2.0);  // tie
  EXPECT_DOUBLE_EQ(HitRateAtK(&model, {0}, 10, {11}, 1), 1.0);
}

}  // namespace
}  // namespace msopds
