#ifndef MSOPDS_TENSOR_TENSOR_H_
#define MSOPDS_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/storage.h"
#include "util/logging.h"

namespace msopds {

/// Reduction chunk grain for Tensor::Sum / Tensor::Max: tensors at or
/// below this size form a one-chunk grid and take the exact pre-pool
/// serial code path. Exposed so the write-overlap verifier (ops.cc's
/// Sum plan) rebuilds the same partial-slot grid the kernel runs.
inline constexpr int64_t kReduceGrain = 32768;

/// Flat element view of a tensor buffer used inside kernels: indexing is
/// bounds-checked in Debug builds (MSOPDS_DCHECK) and compiles down to a
/// raw pointer access in Release, unlike Tensor::at() which pays rank and
/// bounds CHECKs on every element. Views never own or extend the buffer's
/// lifetime — take them right before the loop that uses them.
class ConstTensorSpan {
 public:
  ConstTensorSpan(const double* data, int64_t size)
      : data_(data), size_(size) {}

  double operator[](int64_t i) const {
    MSOPDS_DCHECK_GE(i, 0);
    MSOPDS_DCHECK_LT(i, size_);
    return data_[i];
  }

  const double* begin() const { return data_; }
  int64_t size() const { return size_; }

 private:
  const double* data_;
  int64_t size_;
};

class TensorSpan {
 public:
  TensorSpan(double* data, int64_t size) : data_(data), size_(size) {}

  double& operator[](int64_t i) const {
    MSOPDS_DCHECK_GE(i, 0);
    MSOPDS_DCHECK_LT(i, size_);
    return data_[i];
  }

  double* begin() const { return data_; }
  int64_t size() const { return size_; }

 private:
  double* data_;
  int64_t size_;
};

/// Dense row-major tensor of doubles with rank 0, 1, or 2.
///
/// Copying a Tensor shares the underlying buffer (like torch tensors);
/// use Clone() for a deep copy. All differentiable computation happens on
/// Variable (tensor/variable.h); Tensor is the raw storage + eager math
/// used inside op kernels.
class Tensor {
 public:
  /// An empty (undefined) tensor; size() == 0 and rank() == 0.
  Tensor();

  /// Allocates a zero-initialized tensor of the given shape (rank <= 2).
  explicit Tensor(std::vector<int64_t> shape);

  /// Scalar (rank-0) tensor holding `value`.
  static Tensor Scalar(double value);

  /// Rank-1 tensor from values.
  static Tensor FromVector(std::vector<double> values);

  /// Rank-2 tensor from row-major values; values.size() must be rows*cols.
  static Tensor FromMatrix(int64_t rows, int64_t cols,
                           std::vector<double> values);

  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Ones(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, double value);

  /// Deep copy.
  Tensor Clone() const;

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t axis) const;
  int64_t size() const { return size_; }
  bool defined() const { return data_ != nullptr; }

  double* data();
  const double* data() const;

  /// Unchecked (Debug-checked) element views for kernel hot loops; see
  /// ConstTensorSpan. Requires defined().
  ConstTensorSpan span() const { return {data(), size_}; }
  TensorSpan mutable_span() { return {data(), size_}; }

  /// Scalar access; requires size() == 1 (any rank).
  double item() const;

  /// Rank-1 element access.
  double& at(int64_t i);
  double at(int64_t i) const;

  /// Rank-2 element access.
  double& at(int64_t i, int64_t j);
  double at(int64_t i, int64_t j) const;

  /// True if both shapes are identical.
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Monotonic version stamp of the underlying buffer, shared by every
  /// Tensor aliasing it. Ops snapshot their inputs' generations when they
  /// are recorded; the graph verifier compares the snapshots against the
  /// current values to flag tensors mutated after being captured by a
  /// graph (the "stale leaf" hazard). 0 for undefined tensors.
  uint64_t generation() const { return data_ ? data_->generation() : 0; }

  /// Marks the buffer as mutated. Called by Variable::mutable_value();
  /// call it directly after writing through data() to a tensor that a
  /// recorded graph may alias.
  void BumpGeneration() {
    if (data_) data_->BumpGeneration();
  }

  /// True when this handle is the only reference to the buffer. Grad()'s
  /// value mode accumulates in place only when this holds — mutating a
  /// shared buffer would corrupt aliases, so it clones first otherwise.
  bool sole_buffer_owner() const {
    return data_ != nullptr && data_.use_count() == 1;
  }

  /// Sets every element to `value`.
  void Fill(double value);

  /// Sum of all elements.
  double Sum() const;

  /// Maximum absolute element (0 for empty tensors).
  double MaxAbs() const;

  /// Debug rendering, e.g. "[2,3]{1, 2, 3, ...}".
  std::string DebugString(int64_t max_elements = 8) const;

 private:
  std::vector<int64_t> shape_;
  int64_t size_ = 0;
  /// Arena-backed, ref-counted buffer; carries the generation stamp.
  std::shared_ptr<TensorStorage> data_;
};

/// True if `a` and `b` have equal shape and elements within `tolerance`.
bool AllClose(const Tensor& a, const Tensor& b, double tolerance = 1e-9);

}  // namespace msopds

#endif  // MSOPDS_TENSOR_TENSOR_H_
