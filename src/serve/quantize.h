#ifndef MSOPDS_SERVE_QUANTIZE_H_
#define MSOPDS_SERVE_QUANTIZE_H_

// Quantized snapshot export (DESIGN.md §15).
//
// A published ModelSnapshot can carry its factor blocks at one of two
// storage precisions:
//
//   kFp64  — the full-precision export (the repo's models train and
//            serve in IEEE binary64 end-to-end, so "full precision"
//            here is 8 bytes/element, stricter than the fp32 baseline
//            the quantization literature usually compares against);
//   kInt8  — per-row symmetric int8 with one binary32 scale per row
//            (scale = maxabs/127, value ≈ q * scale), ~8× smaller.
//
// Biases and the global offset always stay binary64: they are O(U + I)
// against the O((U + I) * D) factor blocks, and keeping them exact means
// quantization error is confined to the dot product.
//
// Quantization happens once, at export/publish time (QuantizeSnapshot);
// the serve hot path never converts storage, it just dispatches to the
// width-matched kernel (simd::Dot / simd::DotI8).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace msopds {
namespace serve {

class ModelSnapshot;

/// Storage precision of a snapshot's factor blocks.
enum class SnapshotPrecision {
  kFp64 = 0,
  kInt8 = 1,
};

const char* SnapshotPrecisionName(SnapshotPrecision precision);

/// Parses "fp64" / "int8" (as used by bench flags). Returns false and
/// leaves `*out` untouched on anything else.
bool ParseSnapshotPrecision(const std::string& text, SnapshotPrecision* out);

/// Per-row symmetric int8 quantization of a row-major [num_rows × dim]
/// block: scale[r] = maxabs(row r) / 127 stored in binary32, and
/// q = clamp(round(value / scale), -127, 127). All-zero (or non-finite
/// maxabs) rows get scale 0 and all-zero codes, so they dequantize to
/// exact zeros.
void QuantizeRowsInt8(const double* rows, int64_t num_rows, int64_t dim,
                      std::vector<int8_t>* values,
                      std::vector<float>* scales);

/// Re-exports `source` (which must be a kFp64 snapshot) at `target`
/// precision. Factor blocks are quantized once here; biases, offset,
/// seen-CSR, version, and source tag are copied unchanged. kFp64 target
/// returns a plain deep copy.
std::shared_ptr<const ModelSnapshot> QuantizeSnapshot(
    const ModelSnapshot& source, SnapshotPrecision target);

}  // namespace serve
}  // namespace msopds

#endif  // MSOPDS_SERVE_QUANTIZE_H_
