#include "serve/model_snapshot.h"

#include <algorithm>
#include <utility>

namespace msopds {
namespace serve {

SeenItemsCsr SeenItemsCsr::FromRatings(int64_t num_users, int64_t num_items,
                                       const std::vector<Rating>& ratings) {
  MSOPDS_CHECK_GE(num_users, 0);
  SeenItemsCsr csr;
  std::vector<int64_t> counts(static_cast<size_t>(num_users), 0);
  for (const Rating& r : ratings) {
    MSOPDS_CHECK_GE(r.user, 0);
    MSOPDS_CHECK_LT(r.user, num_users);
    MSOPDS_CHECK_GE(r.item, 0);
    MSOPDS_CHECK_LT(r.item, num_items);
    ++counts[static_cast<size_t>(r.user)];
  }
  csr.offsets.assign(static_cast<size_t>(num_users) + 1, 0);
  for (int64_t u = 0; u < num_users; ++u) {
    csr.offsets[static_cast<size_t>(u) + 1] =
        csr.offsets[static_cast<size_t>(u)] + counts[static_cast<size_t>(u)];
  }
  csr.items.resize(static_cast<size_t>(csr.offsets.back()));
  std::vector<int64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const Rating& r : ratings) {
    csr.items[static_cast<size_t>(cursor[static_cast<size_t>(r.user)]++)] =
        r.item;
  }
  for (int64_t u = 0; u < num_users; ++u) {
    std::sort(csr.items.begin() + csr.offsets[static_cast<size_t>(u)],
              csr.items.begin() + csr.offsets[static_cast<size_t>(u) + 1]);
  }
  return csr;
}

bool SeenItemsCsr::Contains(int64_t user, int64_t item) const {
  const int64_t* begin = Row(user);
  const int64_t* end = begin + RowSize(user);
  return std::binary_search(begin, end, item);
}

namespace {

// Deep copy of a Tensor's elements into a detached heap vector (never
// shares TensorStorage, so the copy outlives arena regions).
std::vector<double> DetachedCopy(const Tensor& t) {
  if (!t.defined() || t.size() == 0) return {};
  return std::vector<double>(t.data(), t.data() + t.size());
}

}  // namespace

std::shared_ptr<const ModelSnapshot> ModelSnapshot::FromModel(
    RatingModel* model, const Dataset& dataset,
    const SnapshotOptions& options) {
  MSOPDS_CHECK(model != nullptr);
  ServingParams params = model->ExportServingParams();
  MSOPDS_CHECK(params.user_factors.defined());
  MSOPDS_CHECK(params.item_factors.defined());
  MSOPDS_CHECK_EQ(params.user_factors.rank(), 2);
  MSOPDS_CHECK_EQ(params.item_factors.rank(), 2);
  const int64_t num_users = params.user_factors.dim(0);
  const int64_t num_items = params.item_factors.dim(0);
  const int64_t dim = params.user_factors.dim(1);
  MSOPDS_CHECK_EQ(params.item_factors.dim(1), dim);
  MSOPDS_CHECK_EQ(num_users, dataset.num_users);
  MSOPDS_CHECK_EQ(num_items, dataset.num_items);
  if (params.user_bias.defined()) {
    MSOPDS_CHECK_EQ(params.user_bias.size(), num_users);
  }
  if (params.item_bias.defined()) {
    MSOPDS_CHECK_EQ(params.item_bias.size(), num_items);
  }
  auto full = std::make_shared<const ModelSnapshot>(
      num_users, num_items, dim, DetachedCopy(params.user_factors),
      DetachedCopy(params.item_factors), DetachedCopy(params.user_bias),
      DetachedCopy(params.item_bias), params.offset,
      SeenItemsCsr::FromRatings(num_users, num_items, dataset.ratings),
      options);
  if (options.precision == SnapshotPrecision::kFp64) return full;
  // Quantize once at export time; the binary64 intermediate is dropped.
  return QuantizeSnapshot(*full, options.precision);
}

ModelSnapshot::ModelSnapshot(int64_t num_users, int64_t num_items, int64_t dim,
                             std::vector<double> user_factors,
                             std::vector<double> item_factors,
                             std::vector<double> user_bias,
                             std::vector<double> item_bias, double offset,
                             SeenItemsCsr seen, const SnapshotOptions& options)
    : num_users_(num_users),
      num_items_(num_items),
      dim_(dim),
      user_factors_(std::move(user_factors)),
      item_factors_(std::move(item_factors)),
      user_bias_(std::move(user_bias)),
      item_bias_(std::move(item_bias)),
      offset_(offset),
      seen_(std::move(seen)),
      version_(options.version),
      source_(options.source) {
  MSOPDS_CHECK_GE(num_users_, 0);
  MSOPDS_CHECK_GE(num_items_, 0);
  MSOPDS_CHECK_GT(dim_, 0);
  MSOPDS_CHECK_EQ(static_cast<int64_t>(user_factors_.size()),
                  num_users_ * dim_);
  MSOPDS_CHECK_EQ(static_cast<int64_t>(item_factors_.size()),
                  num_items_ * dim_);
  MSOPDS_CHECK(user_bias_.empty() ||
               static_cast<int64_t>(user_bias_.size()) == num_users_);
  MSOPDS_CHECK(item_bias_.empty() ||
               static_cast<int64_t>(item_bias_.size()) == num_items_);
  MSOPDS_CHECK_EQ(seen_.num_users(), num_users_);
}

int64_t ModelSnapshot::FactorPayloadBytes() const {
  const int64_t f64_bytes = static_cast<int64_t>(sizeof(double)) *
                            static_cast<int64_t>(user_factors_.size() +
                                                 item_factors_.size());
  const int64_t q8_bytes = static_cast<int64_t>(
      user_q8_.size() + item_q8_.size());
  const int64_t scale_bytes =
      static_cast<int64_t>(sizeof(float)) *
      static_cast<int64_t>(user_scale_.size() + item_scale_.size());
  return f64_bytes + q8_bytes + scale_bytes;
}

int64_t ModelSnapshot::PayloadBytes() const {
  const int64_t biases =
      static_cast<int64_t>(user_bias_.size() + item_bias_.size());
  const int64_t indices =
      static_cast<int64_t>(seen_.offsets.size() + seen_.items.size());
  return FactorPayloadBytes() + static_cast<int64_t>(sizeof(double)) * biases +
         static_cast<int64_t>(sizeof(int64_t)) * indices;
}

}  // namespace serve
}  // namespace msopds
