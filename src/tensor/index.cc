#include "tensor/index.h"

#include "util/thread_pool.h"

namespace msopds {

const ScatterPlan& Index::Plan(int64_t rows, int64_t grain) const {
  MutexLock lock(mu_);
  for (const KeptPlan& kept : plans_) {
    if (kept.rows == rows && kept.grain == grain) return *kept.plan;
  }
  auto plan = std::make_unique<ScatterPlan>();
  const auto chunks = static_cast<size_t>(NumChunks(rows, grain));
  // Count each chunk's entries into offsets[chunk + 1], then prefix-sum.
  plan->offsets.assign(chunks + 1, 0);
  for (const int64_t r : values_) {
    MSOPDS_CHECK_GE(r, 0);
    MSOPDS_CHECK_LT(r, rows);
    ++plan->offsets[static_cast<size_t>(r / grain) + 1];
  }
  for (size_t c = 0; c < chunks; ++c) {
    plan->offsets[c + 1] += plan->offsets[c];
  }
  // Stable fill: each chunk's entries keep index order.
  std::vector<int64_t> next(plan->offsets.begin(), plan->offsets.end() - 1);
  plan->entries.resize(values_.size());
  for (size_t k = 0; k < values_.size(); ++k) {
    const auto chunk = static_cast<size_t>(values_[k] / grain);
    plan->entries[static_cast<size_t>(next[chunk]++)] =
        static_cast<int64_t>(k);
  }
  plans_.push_back({rows, grain, std::move(plan)});
  return *plans_.back().plan;
}

IndexVec MakeIndex(std::vector<int64_t> indices) {
  return std::make_shared<const Index>(std::move(indices));
}

}  // namespace msopds
