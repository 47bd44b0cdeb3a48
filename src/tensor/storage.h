#ifndef MSOPDS_TENSOR_STORAGE_H_
#define MSOPDS_TENSOR_STORAGE_H_

#include <cstdint>
#include <memory>

namespace msopds {

/// Ref-counted tensor buffer backed by the slab arena (util/arena.h).
///
/// Replaces the per-tensor heap std::vector<double>: buffers are drawn
/// from (and returned to) the arena's size-class free lists, so the
/// steady-state allocation churn of training loops recycles instead of
/// hitting the system heap. Copying a Tensor shares the storage; the
/// destructor of the last reference returns the block.
///
/// The monotonic `generation` stamp lives with the buffer (shared by
/// every Tensor aliasing it) and backs the graph verifier's stale-leaf
/// detection.
class TensorStorage {
 public:
  /// A buffer of `size` doubles; zero-filled when `zero` is set (the
  /// Tensor(shape) contract), uninitialized otherwise (for callers that
  /// overwrite every element, e.g. FromVector).
  static std::shared_ptr<TensorStorage> Create(int64_t size, bool zero);

  TensorStorage(const TensorStorage&) = delete;
  TensorStorage& operator=(const TensorStorage&) = delete;
  ~TensorStorage();

  double* data() { return data_; }
  const double* data() const { return data_; }
  int64_t size() const { return size_; }

  uint64_t generation() const { return generation_; }
  void BumpGeneration() { ++generation_; }

 private:
  TensorStorage(double* data, int64_t size)
      : data_(data), size_(size) {}

  double* data_ = nullptr;
  int64_t size_ = 0;
  uint64_t generation_ = 1;
};

}  // namespace msopds

#endif  // MSOPDS_TENSOR_STORAGE_H_
