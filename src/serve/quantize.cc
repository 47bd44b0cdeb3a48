#include "serve/quantize.h"

#include <cmath>

#include "serve/model_snapshot.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace msopds {
namespace serve {

const char* SnapshotPrecisionName(SnapshotPrecision precision) {
  switch (precision) {
    case SnapshotPrecision::kFp64:
      return "fp64";
    case SnapshotPrecision::kInt8:
      return "int8";
  }
  return "fp64";
}

bool ParseSnapshotPrecision(const std::string& text, SnapshotPrecision* out) {
  MSOPDS_CHECK(out != nullptr);
  if (text == "fp64") {
    *out = SnapshotPrecision::kFp64;
  } else if (text == "int8") {
    *out = SnapshotPrecision::kInt8;
  } else {
    return false;
  }
  return true;
}

void QuantizeRowsInt8(const double* rows, int64_t num_rows, int64_t dim,
                      std::vector<int8_t>* values,
                      std::vector<float>* scales) {
  MSOPDS_CHECK(values != nullptr);
  MSOPDS_CHECK(scales != nullptr);
  MSOPDS_CHECK_GE(num_rows, 0);
  MSOPDS_CHECK_GT(dim, 0);
  values->assign(static_cast<size_t>(num_rows * dim), 0);
  scales->assign(static_cast<size_t>(num_rows), 0.0f);
  for (int64_t r = 0; r < num_rows; ++r) {
    const double* row = rows + r * dim;
    const double max_abs = simd::MaxAbs(row, dim);
    if (!(max_abs > 0.0) || !std::isfinite(max_abs)) continue;
    // Scale is stored in binary32 (the published format); quantize with
    // the *stored* scale so dequantization q * scale reproduces the
    // codes' intent exactly.
    const float scale = static_cast<float>(max_abs / 127.0);
    (*scales)[static_cast<size_t>(r)] = scale;
    const double inv_scale = 1.0 / static_cast<double>(scale);
    int8_t* codes = values->data() + r * dim;
    for (int64_t d = 0; d < dim; ++d) {
      long long q = std::llround(row[d] * inv_scale);
      if (q > 127) q = 127;
      if (q < -127) q = -127;
      codes[d] = static_cast<int8_t>(q);
    }
  }
}

std::shared_ptr<const ModelSnapshot> QuantizeSnapshot(
    const ModelSnapshot& source, SnapshotPrecision target) {
  MSOPDS_CHECK(source.precision_ == SnapshotPrecision::kFp64);
  std::shared_ptr<ModelSnapshot> snap(new ModelSnapshot());
  snap->num_users_ = source.num_users_;
  snap->num_items_ = source.num_items_;
  snap->dim_ = source.dim_;
  snap->user_bias_ = source.user_bias_;
  snap->item_bias_ = source.item_bias_;
  snap->offset_ = source.offset_;
  snap->seen_ = source.seen_;
  snap->version_ = source.version_;
  snap->source_ = source.source_;
  snap->precision_ = target;
  switch (target) {
    case SnapshotPrecision::kFp64:
      snap->user_factors_ = source.user_factors_;
      snap->item_factors_ = source.item_factors_;
      break;
    case SnapshotPrecision::kInt8:
      QuantizeRowsInt8(source.user_factors_.data(), source.num_users_,
                       source.dim_, &snap->user_q8_, &snap->user_scale_);
      QuantizeRowsInt8(source.item_factors_.data(), source.num_items_,
                       source.dim_, &snap->item_q8_, &snap->item_scale_);
      break;
  }
  return snap;
}

}  // namespace serve
}  // namespace msopds
