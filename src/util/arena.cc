#include "util/arena.h"

#include <algorithm>

#include "util/env.h"
#include "util/logging.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MSOPDS_ARENA_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define MSOPDS_ARENA_ASAN 1
#endif

#ifdef MSOPDS_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace msopds {
namespace {

// Freed blocks are scribbled in Debug and sanitizer builds; Release
// builds skip the memset (recycling is a hot path there).
#if !defined(NDEBUG) || defined(MSOPDS_ARENA_ASAN)
constexpr bool kPoisonFreedBlocks = true;
#else
constexpr bool kPoisonFreedBlocks = false;
#endif

// Quiet-NaN bit pattern: a stale read of a recycled buffer propagates
// NaNs instead of silently reusing old values.
constexpr uint64_t kPoisonPattern = 0x7FF8DEADBEEFDEADull;

// log2 of the size class serving `capacity` doubles (capacity must be a
// power of two within the pooled range).
int ClassIndex(int64_t capacity) {
  int index = 0;
  while ((int64_t{1} << index) < capacity) ++index;
  return index;
}

bool EnvEnabled() {
  static const bool enabled = EnvSwitch("MSOPDS_ARENA", true);
  return enabled;
}

void FillPoison(double* block, int64_t capacity) {
  if (!kPoisonFreedBlocks) return;
  uint64_t* words = reinterpret_cast<uint64_t*>(block);
  for (int64_t i = 0; i < capacity; ++i) words[i] = kPoisonPattern;
}

void PoisonRange(double* block, int64_t capacity) {
#ifdef MSOPDS_ARENA_ASAN
  __asan_poison_memory_region(block, static_cast<size_t>(capacity) * 8);
#else
  (void)block;
  (void)capacity;
#endif
}

void UnpoisonRange(double* block, int64_t capacity) {
#ifdef MSOPDS_ARENA_ASAN
  __asan_unpoison_memory_region(block, static_cast<size_t>(capacity) * 8);
#else
  (void)block;
  (void)capacity;
#endif
}

}  // namespace

Arena& Arena::Global() {
  static Arena* arena = new Arena();
  return *arena;
}

Arena::~Arena() { Trim(); }

int64_t Arena::SizeClassCapacity(int64_t num_doubles) {
  int64_t capacity = kMinClassDoubles;
  while (capacity < num_doubles) capacity <<= 1;
  return capacity;
}

uint64_t Arena::PoisonPattern() { return kPoisonPattern; }

double* Arena::Allocate(int64_t num_doubles) {
  MSOPDS_CHECK_GE(num_doubles, 0);
  if (num_doubles == 0) return nullptr;
  const int64_t capacity = SizeClassCapacity(num_doubles);
  const int64_t payload_bytes = num_doubles * 8;

  MutexLock lock(mutex_);
  ++stats_.alloc_calls;
  stats_.bytes_live += payload_bytes;
  stats_.high_water_bytes = std::max(stats_.high_water_bytes,
                                     stats_.bytes_live);
  const bool pooled = (enabled_override_ == -1 ? EnvEnabled()
                                               : enabled_override_ != 0) &&
                      capacity <= kMaxClassDoubles;
  if (pooled) {
    std::vector<double*>& list = free_lists_[ClassIndex(capacity)];
    if (!list.empty()) {
      double* block = list.back();
      list.pop_back();
      stats_.bytes_cached -= capacity * 8;
      ++stats_.pool_hits;
      UnpoisonRange(block, capacity);
      return block;
    }
  }
  return new double[static_cast<size_t>(capacity)];
}

void Arena::Deallocate(double* block, int64_t num_doubles) {
  if (block == nullptr || num_doubles == 0) return;
  const int64_t capacity = SizeClassCapacity(num_doubles);

  MutexLock lock(mutex_);
  stats_.bytes_live -= num_doubles * 8;
  const bool pooled = (enabled_override_ == -1 ? EnvEnabled()
                                               : enabled_override_ != 0) &&
                      capacity <= kMaxClassDoubles;
  if (!pooled) {
    delete[] block;
    return;
  }
  FillPoison(block, capacity);
  PoisonRange(block, capacity);
  free_lists_[ClassIndex(capacity)].push_back(block);
  stats_.bytes_cached += capacity * 8;
}

void Arena::Trim() {
  MutexLock lock(mutex_);
  bool freed_any = false;
  for (int c = 0; c < kNumClasses; ++c) {
    for (double* block : free_lists_[c]) {
      UnpoisonRange(block, int64_t{1} << c);
      delete[] block;
      freed_any = true;
    }
    free_lists_[c].clear();
    free_lists_[c].shrink_to_fit();
  }
  stats_.bytes_cached = 0;
  if (freed_any) ++stats_.trims;
}

ArenaStats Arena::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void Arena::ResetStats() {
  MutexLock lock(mutex_);
  const int64_t live = stats_.bytes_live;
  const int64_t cached = stats_.bytes_cached;
  stats_ = ArenaStats{};
  stats_.bytes_live = live;
  stats_.bytes_cached = cached;
  stats_.high_water_bytes = live;
}

void Arena::ResetPeak() {
  MutexLock lock(mutex_);
  stats_.high_water_bytes = stats_.bytes_live;
}

bool Arena::enabled() const {
  MutexLock lock(mutex_);
  return enabled_override_ == -1 ? EnvEnabled() : enabled_override_ != 0;
}

bool Arena::SetEnabled(bool enabled) {
  MutexLock lock(mutex_);
  const bool previous =
      enabled_override_ == -1 ? EnvEnabled() : enabled_override_ != 0;
  enabled_override_ = enabled ? 1 : 0;
  return previous;
}

namespace {
thread_local int g_region_depth = 0;
}  // namespace

ArenaRegion::ArenaRegion() { ++g_region_depth; }

ArenaRegion::~ArenaRegion() {
  if (--g_region_depth == 0) Arena::Global().Trim();
}

}  // namespace msopds
