#include "tensor/storage.h"

#include <cstring>

#include "util/arena.h"
#include "util/logging.h"

namespace msopds {

std::shared_ptr<TensorStorage> TensorStorage::Create(int64_t size,
                                                     bool zero) {
  MSOPDS_CHECK_GE(size, 0);
  double* data = Arena::Global().Allocate(size);
  if (zero && size > 0) {
    std::memset(data, 0, static_cast<size_t>(size) * sizeof(double));
  }
  return std::shared_ptr<TensorStorage>(new TensorStorage(data, size));
}

TensorStorage::~TensorStorage() { Arena::Global().Deallocate(data_, size_); }

}  // namespace msopds
