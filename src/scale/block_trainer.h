#ifndef MSOPDS_SCALE_BLOCK_TRAINER_H_
#define MSOPDS_SCALE_BLOCK_TRAINER_H_

#include <string>
#include <vector>

#include "recsys/matrix_factorization.h"
#include "recsys/trainer.h"
#include "util/status.h"

namespace msopds {
namespace scale {

/// Outcome of an out-of-core training run: the TrainEpochs result plus
/// what the shard-at-a-time pass actually touched.
struct OutOfCoreResult : TrainResult {
  /// Shard loads across all epochs (including the final-loss pass).
  int64_t shards_visited = 0;
  /// Largest single shard file touched — the out-of-core working set is
  /// bounded by this plus the model parameters, not by the dataset.
  int64_t peak_shard_bytes = 0;
};

/// Full-batch MF training that streams the dataset one shard at a time
/// instead of holding it in memory, bit-identical to
/// TrainModel(model, UserMajorRatings(dataset), options) at any shard
/// count (the equivalence contract of DESIGN.md §17, asserted by
/// ctest -L scale). Both run the same TrainEpochs driver (snapshot,
/// guard, rollback, retry, Adam); only the loss-and-gradient pass
/// differs, because no tape can span every shard:
///
///  - the shard CSR enumerates ratings in exactly the canonical
///    user-major order, so the hand-written gradient loop replays the
///    tape's per-rating accumulation sequence;
///  - the loss replicates Tensor::Sum's fixed kReduceGrain chunk grid
///    and pairwise partial fold (PairwiseSum), streamed across shard
///    boundaries, so the scalar loss — and with it the divergence
///    detector, the retry trace, and fault-injection behavior — matches
///    to the last bit.
///
/// At most one shard is mapped at a time, bounding peak RSS by the
/// largest shard; a one-shard set is the in-memory case. An incomplete
/// or inconsistent shard set, one that holds no ratings, or a model
/// whose shape does not match it yields InvalidArgument.
///
/// For the HetRecSys victim the graph propagation couples users
/// across shard cuts, so shard-local training is an approximation there;
/// the documented equivalence bound lives in DESIGN.md §17. This driver
/// is exact for MF.
StatusOr<OutOfCoreResult> TrainMfOutOfCore(
    MatrixFactorization* model, const std::vector<std::string>& shard_paths,
    const TrainOptions& options);

}  // namespace scale
}  // namespace msopds

#endif  // MSOPDS_SCALE_BLOCK_TRAINER_H_
