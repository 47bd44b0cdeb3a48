#ifndef MSOPDS_SERVE_MODEL_SNAPSHOT_H_
#define MSOPDS_SERVE_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "recsys/rating_model.h"
#include "serve/quantize.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace msopds {
namespace serve {

/// CSR of each user's already-rated ("seen") items, used by the top-K
/// scorer to exclude items the user has interacted with. Item ids are
/// sorted ascending within each row, so exclusion during an ascending
/// catalog scan is a single monotone cursor per user.
struct SeenItemsCsr {
  std::vector<int64_t> offsets;  // [num_users + 1]
  std::vector<int64_t> items;    // sorted ascending per row

  static SeenItemsCsr FromRatings(int64_t num_users, int64_t num_items,
                                  const std::vector<Rating>& ratings);

  int64_t num_users() const {
    return static_cast<int64_t>(offsets.size()) - 1;
  }

  /// Seen-item count of `user`.
  int64_t RowSize(int64_t user) const {
    return offsets[static_cast<size_t>(user) + 1] -
           offsets[static_cast<size_t>(user)];
  }

  /// Pointer to the first seen item of `user` (end = begin + RowSize).
  const int64_t* Row(int64_t user) const {
    return items.data() + offsets[static_cast<size_t>(user)];
  }

  /// Binary-search membership test.
  bool Contains(int64_t user, int64_t item) const;
};

/// Identity attached to a published snapshot.
struct SnapshotOptions {
  /// Monotonic publish version (the engine reports it per response).
  uint64_t version = 0;
  /// Free-form provenance tag, e.g. "mf", "het_recsys",
  /// "het_recsys+poisoned".
  std::string source;
  /// Storage precision of the factor blocks. Non-kFp64 exports quantize
  /// once at FromModel time (serve/quantize.h).
  SnapshotPrecision precision = SnapshotPrecision::kFp64;
};

/// Immutable, tape-free, arena-detached export of a trained rating model.
///
/// FromModel() deep-copies the model's ServingParams into plain
/// std::vector<double> blocks: the snapshot never aliases TensorStorage,
/// so it stays valid after the training-side ArenaRegion exits, after the
/// model is destroyed, and after the arena recycles (and poisons) the
/// training buffers. All state is set once at build time and never
/// mutated, so concurrent readers need no synchronization beyond the
/// pointer hand-off (serve/engine.h).
///
/// Scoring follows the ServingParams recipe exactly — simd::Dot over the
/// latent dimension (the same fixed 4-lane reduction PairDot's RowSum
/// uses offline, DESIGN.md §14), then `+ user_bias`, `+ item_bias` (each
/// skipped when the model has none), then `+ offset` — which makes
/// Score() bit-identical to the model's PredictPairs. The top-K kernel
/// scores whole item spans through ScoreItems() instead: one
/// simd::RowDots per span, which equals a Dot per item bit for bit, and
/// the same adds in the same order, so its scores are Score()'s.
///
/// A snapshot may also hold its factor blocks quantized (kInt8,
/// serve/quantize.h); the int8 kernel then replaces simd::Dot:
/// ((double)simd::DotI8 * user_scale) * item_scale — the dot is exact
/// integer arithmetic and the two scale multiplies use a fixed
/// association, so this too is bit-identical across threads, SIMD
/// on/off, and runs *within* the int8 snapshot.
/// Biases and offset stay binary64 in every mode. Cross-precision
/// fidelity is tolerance-bounded, never bit-scoped (DESIGN.md §15).
class ModelSnapshot {
 public:
  /// Exports `model` against `dataset` (which provides the seen-item CSR;
  /// its user/item counts must match the exported embedding tables).
  static std::shared_ptr<const ModelSnapshot> FromModel(
      RatingModel* model, const Dataset& dataset,
      const SnapshotOptions& options = {});

  /// Raw constructor for tests and custom exporters. Bias vectors may be
  /// empty (models without that term); non-empty sizes must match.
  ModelSnapshot(int64_t num_users, int64_t num_items, int64_t dim,
                std::vector<double> user_factors,
                std::vector<double> item_factors,
                std::vector<double> user_bias, std::vector<double> item_bias,
                double offset, SeenItemsCsr seen,
                const SnapshotOptions& options);

  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t dim() const { return dim_; }
  uint64_t version() const { return version_; }
  const std::string& source() const { return source_; }
  const SeenItemsCsr& seen() const { return seen_; }
  double offset() const { return offset_; }
  bool has_user_bias() const { return !user_bias_.empty(); }
  bool has_item_bias() const { return !item_bias_.empty(); }
  SnapshotPrecision precision() const { return precision_; }

  /// Precision-erased handle to one user's factor row: exactly one of
  /// the pointers is set (matching precision()), and `scale` carries the
  /// user's int8 dequantization scale (0.0 otherwise). The tiled top-K
  /// kernel resolves the handle once per user and block and scores whole
  /// item tiles through it (ScoreItems).
  struct UserRef {
    const double* f64 = nullptr;
    const int8_t* q8 = nullptr;
    double scale = 0.0;
  };

  UserRef UserRefFor(int64_t user) const {
    MSOPDS_DCHECK_GE(user, 0);
    MSOPDS_DCHECK_LT(user, num_users_);
    UserRef ref;
    switch (precision_) {
      case SnapshotPrecision::kFp64:
        ref.f64 = user_factors_.data() + user * dim_;
        break;
      case SnapshotPrecision::kInt8:
        ref.q8 = user_q8_.data() + user * dim_;
        ref.scale =
            static_cast<double>(user_scale_[static_cast<size_t>(user)]);
        break;
    }
    return ref;
  }

  /// Predicted rating of (user, item). For kFp64 snapshots this is
  /// bit-identical to the exported model's PredictPairs (see class
  /// comment); quantized snapshots score through the width-matched
  /// kernel and are bit-stable within their own precision. The per-pair
  /// reference that ScoreItems is tested against.
  double Score(int64_t user, int64_t item) const {
    MSOPDS_DCHECK_GE(item, 0);
    MSOPDS_DCHECK_LT(item, num_items_);
    const UserRef ref = UserRefFor(user);
    double s = 0.0;
    switch (precision_) {
      case SnapshotPrecision::kFp64:
        s = simd::Dot(ref.f64, item_factors_.data() + item * dim_, dim_);
        break;
      case SnapshotPrecision::kInt8:
        s = Int8Dot(ref, item);
        break;
    }
    if (!user_bias_.empty()) s += user_bias_[static_cast<size_t>(user)];
    if (!item_bias_.empty()) s += item_bias_[static_cast<size_t>(item)];
    return s + offset_;
  }

  /// out[j] = Score(user, begin + j) for every item in [begin, end), bit
  /// for bit, with the user row already resolved as `ref` (the top-K
  /// kernel keeps it across a block). The precision switch runs once per
  /// call: fp64 scores the contiguous item rows with one simd::RowDots,
  /// int8 takes one DotI8 per item. The bias and offset adds then run
  /// over the span in Score's order, so each element sees the same
  /// operations on the same operands.
  void ScoreItems(const UserRef& ref, int64_t user, int64_t begin,
                  int64_t end, double* out) const {
    MSOPDS_DCHECK_GE(begin, 0);
    MSOPDS_DCHECK_LE(begin, end);
    MSOPDS_DCHECK_LE(end, num_items_);
    const int64_t count = end - begin;
    switch (precision_) {
      case SnapshotPrecision::kFp64:
        simd::RowDots(ref.f64, item_factors_.data() + begin * dim_, dim_,
                      count, out);
        break;
      case SnapshotPrecision::kInt8:
        for (int64_t j = 0; j < count; ++j) out[j] = Int8Dot(ref, begin + j);
        break;
    }
    if (!user_bias_.empty()) {
      simd::Offset(out, user_bias_[static_cast<size_t>(user)], out, count);
    }
    if (!item_bias_.empty()) {
      simd::AddInPlace(out, item_bias_.data() + begin, count);
    }
    simd::Offset(out, offset_, out, count);
  }

  /// Payload bytes held by this snapshot (factor blocks at their stored
  /// precision + int8 scales + biases + CSR), for capacity accounting.
  int64_t PayloadBytes() const;

  /// Bytes of the factor blocks alone (including int8 per-row scales) —
  /// the part quantization shrinks; BENCH_quant.json reports this per
  /// user row.
  int64_t FactorPayloadBytes() const;

 private:
  friend std::shared_ptr<const ModelSnapshot> QuantizeSnapshot(
      const ModelSnapshot& source, SnapshotPrecision target);

  /// Quantized snapshots are assembled field-by-field by
  /// QuantizeSnapshot; the public constructor stays kFp64-only.
  ModelSnapshot() = default;

  /// The int8 product of `ref` and item row `item` with its fixed
  /// association, (dot * user_scale) * item_scale: the int dot is exact,
  /// and the two multiplies are the only rounding steps.
  double Int8Dot(const UserRef& ref, int64_t item) const {
    return (static_cast<double>(
                simd::DotI8(ref.q8, item_q8_.data() + item * dim_, dim_)) *
            ref.scale) *
           static_cast<double>(item_scale_[static_cast<size_t>(item)]);
  }

  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  int64_t dim_ = 0;
  // Detached flat row-major blocks — never TensorStorage. Exactly one
  // factor representation is populated, matching precision_.
  std::vector<double> user_factors_;  // [U * D] (kFp64)
  std::vector<double> item_factors_;  // [I * D] (kFp64)
  std::vector<int8_t> user_q8_;       // [U * D] (kInt8 codes)
  std::vector<int8_t> item_q8_;       // [I * D] (kInt8)
  std::vector<float> user_scale_;     // [U] per-row scales (kInt8)
  std::vector<float> item_scale_;     // [I] (kInt8)
  std::vector<double> user_bias_;     // [U] or empty (always binary64)
  std::vector<double> item_bias_;     // [I] or empty
  double offset_ = 0.0;
  SnapshotPrecision precision_ = SnapshotPrecision::kFp64;
  SeenItemsCsr seen_;
  uint64_t version_ = 0;
  std::string source_;
};

}  // namespace serve
}  // namespace msopds

#endif  // MSOPDS_SERVE_MODEL_SNAPSHOT_H_
