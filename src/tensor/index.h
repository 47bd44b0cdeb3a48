#ifndef MSOPDS_TENSOR_INDEX_H_
#define MSOPDS_TENSOR_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/sync.h"

namespace msopds {

/// How a scatter through one index splits over the fixed chunk grid
/// (DESIGN.md §9): entry k goes to chunk index[k] / grain. In CSR form,
/// chunk c owns entries[offsets[c]] .. entries[offsets[c + 1] - 1], in
/// index order. Chunks own disjoint destination ranges, and each
/// destination takes its contributions in the serial order, so scatters
/// need no atomics.
struct ScatterPlan {
  std::vector<int64_t> offsets;  // num_chunks + 1 entries
  std::vector<int64_t> entries;  // index positions, grouped by chunk

  /// The index positions chunk `chunk` applies, in index order.
  std::span<const int64_t> Chunk(int64_t chunk) const {
    const auto c = static_cast<size_t>(chunk);
    return {entries.data() + offsets[c], entries.data() + offsets[c + 1]};
  }
};

/// Immutable index list of the gather, scatter and sparse ops. Backward
/// closures share it instead of copying it. It keeps the scatter plans
/// built from it, one per (row count, grain), so the fixed graph and
/// rating indices a game scatters through thousands of times are
/// bucketed once.
class Index {
 public:
  explicit Index(std::vector<int64_t> values) : values_(std::move(values)) {}

  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  bool empty() const { return values_.empty(); }

  int64_t operator[](int64_t i) const {
    MSOPDS_DCHECK_GE(i, 0);
    MSOPDS_DCHECK_LT(i, size());
    return values_[static_cast<size_t>(i)];
  }

  /// The plan scattering this index into `rows` destinations on chunks
  /// of `grain` rows. The first request of a (rows, grain) pair builds it
  /// with a counting pass that checks each entry against [0, rows) in
  /// index order, so it aborts where a serial scatter loop would; later
  /// requests return the kept plan. Thread-safe; the plan lives as long
  /// as the index.
  const ScatterPlan& Plan(int64_t rows, int64_t grain) const;

 private:
  struct KeptPlan {
    int64_t rows;
    int64_t grain;
    std::unique_ptr<const ScatterPlan> plan;
  };

  const std::vector<int64_t> values_;
  mutable Mutex mu_;
  mutable std::vector<KeptPlan> plans_ MSOPDS_GUARDED_BY(mu_);
};

/// Shared immutable index used by gather/scatter/sparse ops.
using IndexVec = std::shared_ptr<const Index>;

/// Wraps indices into an IndexVec.
IndexVec MakeIndex(std::vector<int64_t> indices);

}  // namespace msopds

#endif  // MSOPDS_TENSOR_INDEX_H_
