#include "core/losses.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/grad.h"

namespace msopds {
namespace {

TEST(LossesTest, ComprehensiveLossZeroWhenTargetDominates) {
  // Target far above all competitors: SELU of a very negative number
  // saturates near -scale*alpha, so the loss is negative and small.
  Variable target = Constant(Tensor::FromVector({50.0, 50.0}));
  Variable compete = Constant(Tensor::FromVector({1.0, 2.0, 1.0, 2.0}));
  const double loss =
      ComprehensiveLossFromPredictions(target, compete, 2, false)
          .value()
          .item();
  // Each saturated SELU term is about -1.7581; 2 terms per user.
  EXPECT_LT(loss, 0.0);
  EXPECT_NEAR(loss, 2 * -1.7581, 0.01);
}

TEST(LossesTest, ComprehensiveLossGrowsWhenTargetLoses) {
  Variable target = Constant(Tensor::FromVector({1.0}));
  Variable compete_close = Constant(Tensor::FromVector({2.0}));
  Variable compete_far = Constant(Tensor::FromVector({4.0}));
  const double close_loss =
      ComprehensiveLossFromPredictions(target, compete_close, 1, false)
          .value()
          .item();
  const double far_loss =
      ComprehensiveLossFromPredictions(target, compete_far, 1, false)
          .value()
          .item();
  EXPECT_GT(far_loss, close_loss);
  // SELU is linear-positive above zero: difference 3 -> ~3 * 1.0507.
  EXPECT_NEAR(far_loss, 3.0 * 1.0507009873554805, 1e-9);
}

TEST(LossesTest, DemoteReversesTheDifference) {
  Variable target = Constant(Tensor::FromVector({4.0}));
  Variable compete = Constant(Tensor::FromVector({1.0}));
  const double promote =
      ComprehensiveLossFromPredictions(target, compete, 1, false)
          .value()
          .item();
  const double demote =
      ComprehensiveLossFromPredictions(target, compete, 1, true)
          .value()
          .item();
  EXPECT_LT(promote, 0.0);  // target winning: promote loss saturated low
  EXPECT_GT(demote, 0.0);   // demoter unhappy: positive loss
  EXPECT_NEAR(demote, 3.0 * 1.0507009873554805, 1e-9);
}

TEST(LossesTest, AveragesOverAudienceNotCompetitors) {
  // Two users, one competitor each, identical differences: the loss must
  // equal the single-user case (mean over audience, sum over compete).
  Variable target1 = Constant(Tensor::FromVector({1.0}));
  Variable compete1 = Constant(Tensor::FromVector({3.0}));
  Variable target2 = Constant(Tensor::FromVector({1.0, 1.0}));
  Variable compete2 = Constant(Tensor::FromVector({3.0, 3.0}));
  const double single =
      ComprehensiveLossFromPredictions(target1, compete1, 1, false)
          .value()
          .item();
  const double doubled =
      ComprehensiveLossFromPredictions(target2, compete2, 1, false)
          .value()
          .item();
  EXPECT_NEAR(single, doubled, 1e-12);
}

TEST(LossesTest, GradientFavorsRaisingTarget) {
  Variable target = Param(Tensor::FromVector({2.0, 2.5}));
  Variable compete = Param(Tensor::FromVector({3.0, 2.0, 3.5, 1.0}));
  Variable loss =
      ComprehensiveLossFromPredictions(target, compete, 2, false);
  const auto grads = GradValues(loss, {target, compete});
  // Raising the target lowers the loss -> negative gradient on target.
  EXPECT_LT(grads[0].at(0), 0.0);
  EXPECT_LT(grads[0].at(1), 0.0);
  // Raising a winning competitor raises the loss.
  EXPECT_GT(grads[1].at(0), 0.0);
}

}  // namespace
}  // namespace msopds
