#include "core/losses.h"

#include "util/logging.h"

namespace msopds {

Variable ComprehensiveLossFromPredictions(const Variable& target_predictions,
                                          const Variable& compete_predictions,
                                          int64_t num_compete, bool demote) {
  MSOPDS_CHECK_EQ(target_predictions.value().rank(), 1);
  MSOPDS_CHECK_EQ(compete_predictions.value().rank(), 1);
  MSOPDS_CHECK_GT(num_compete, 0);
  const int64_t audience = target_predictions.value().dim(0);
  MSOPDS_CHECK_EQ(compete_predictions.value().dim(0), audience * num_compete);
  MSOPDS_CHECK_GT(audience, 0);

  // Repeat each target prediction num_compete times (user-major).
  std::vector<int64_t> repeat(static_cast<size_t>(audience * num_compete));
  for (int64_t a = 0; a < audience; ++a) {
    for (int64_t c = 0; c < num_compete; ++c) {
      repeat[static_cast<size_t>(a * num_compete + c)] = a;
    }
  }
  Variable target_repeated =
      Gather1(target_predictions, MakeIndex(std::move(repeat)));
  Variable difference = demote ? Sub(target_repeated, compete_predictions)
                               : Sub(compete_predictions, target_repeated);
  return ScalarMul(Sum(Selu(difference)),
                   1.0 / static_cast<double>(audience));
}

}  // namespace msopds
