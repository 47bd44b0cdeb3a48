#ifndef MSOPDS_UTIL_ARENA_H_
#define MSOPDS_UTIL_ARENA_H_

#include <cstdint>
#include <vector>

#include "util/sync.h"

namespace msopds {

/// Counters of the tensor-buffer arena. All byte figures count payload
/// (requested doubles * 8), not size-class slack.
struct ArenaStats {
  /// Buffer requests since the last ResetStats(), pooled or not.
  int64_t alloc_calls = 0;
  /// Requests served by recycling a cached block (0 with the arena off).
  int64_t pool_hits = 0;
  /// Bytes currently handed out (live tensor buffers).
  int64_t bytes_live = 0;
  /// Maximum of bytes_live since the last ResetPeak()/ResetStats().
  int64_t high_water_bytes = 0;
  /// Bytes parked in the free lists, ready for recycling.
  int64_t bytes_cached = 0;
  /// Bulk releases performed (Trim() calls that freed at least one block).
  int64_t trims = 0;

  /// Requests that hit the system heap: alloc_calls - pool_hits.
  int64_t heap_allocs() const { return alloc_calls - pool_hits; }
  /// pool_hits / alloc_calls in [0, 1]; 0 when nothing was requested.
  double hit_rate() const {
    return alloc_calls > 0
               ? static_cast<double>(pool_hits) /
                     static_cast<double>(alloc_calls)
               : 0.0;
  }
};

/// Size-class slab allocator for tensor buffers (arrays of double).
///
/// Freed blocks are parked on per-size-class free lists and recycled by
/// later allocations of the same class, so steady-state training loops
/// stop touching the system heap entirely. Requests are rounded up to
/// power-of-two classes between kMinClassDoubles and kMaxClassDoubles;
/// larger blocks bypass the pool (allocated and freed directly). All
/// operations are thread-safe (one mutex; allocation happens during
/// graph recording, never inside kernel inner loops).
///
/// Recycling must never mask a use-after-free: in Debug and sanitizer
/// builds, freed blocks are filled with a recognizable signaling-NaN
/// pattern, and under AddressSanitizer the cached bytes are additionally
/// poisoned (__asan_poison_memory_region) until reallocated, so a stale
/// pointer into a cached block still reports use-after-poison.
///
/// The pool is on by default and switchable for A/B verification with
/// the MSOPDS_ARENA environment switch (0 disables recycling, 1 keeps
/// it; util/env.h; SetEnabled() overrides at runtime). Allocation results are identical
/// either way — recycled blocks are handed out exactly as a fresh
/// allocation would be — so enabled/disabled runs are bit-identical.
class Arena {
 public:
  /// Smallest pooled block: 64 doubles (512 bytes).
  static constexpr int64_t kMinClassDoubles = 64;
  /// Largest pooled block: 2^24 doubles (128 MiB); larger requests
  /// bypass the pool.
  static constexpr int64_t kMaxClassDoubles = int64_t{1} << 24;

  /// The process-wide arena used by tensor storage.
  static Arena& Global();

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena();

  /// An uninitialized block holding at least `num_doubles` doubles.
  /// Callers must not rely on the contents (recycled blocks hold the
  /// poison pattern in Debug builds). Returns nullptr for num_doubles 0.
  double* Allocate(int64_t num_doubles);

  /// Returns a block obtained from Allocate(num_doubles). With the pool
  /// enabled and the size pooled, the block is cached for recycling;
  /// otherwise it is freed immediately.
  void Deallocate(double* block, int64_t num_doubles);

  /// Frees every cached block back to the system heap (the bulk-release
  /// leg of ArenaRegion). Live buffers are untouched.
  void Trim();

  ArenaStats stats() const;
  /// Zeroes the counters; bytes_live/bytes_cached reflect reality and
  /// high_water_bytes restarts from the current bytes_live.
  void ResetStats();
  /// Restarts high_water_bytes from the current bytes_live (per-phase
  /// peak measurement without losing the other counters).
  void ResetPeak();

  bool enabled() const;
  /// Overrides the MSOPDS_ARENA default; returns the previous value.
  /// Disabling does not drop already-cached blocks (call Trim()).
  bool SetEnabled(bool enabled);

  /// Doubles actually reserved for a request of `num_doubles` (the
  /// size-class capacity); exposed for tests.
  static int64_t SizeClassCapacity(int64_t num_doubles);

  /// The Debug/sanitizer poison pattern freed blocks are filled with
  /// (a signaling-NaN payload, so stale reads surface as NaNs).
  static uint64_t PoisonPattern();

 private:
  // One free list per power-of-two class; index = log2(capacity).
  static constexpr int kNumClasses = 25;

  mutable Mutex mutex_;
  std::vector<double*> free_lists_[kNumClasses] MSOPDS_GUARDED_BY(mutex_);
  ArenaStats stats_ MSOPDS_GUARDED_BY(mutex_);
  // -1 = consult MSOPDS_ARENA lazily, else 0/1.
  int enabled_override_ MSOPDS_GUARDED_BY(mutex_) = -1;
};

/// Scoped bulk release: when the outermost region on a thread of control
/// exits, every block cached by the arena is returned to the system heap.
/// Wrap a trainer run or an attack trial in a region so its allocation
/// churn is recycled *during* the phase but does not stay resident after
/// it. Regions nest; only the outermost exit trims.
class ArenaRegion {
 public:
  ArenaRegion();
  ArenaRegion(const ArenaRegion&) = delete;
  ArenaRegion& operator=(const ArenaRegion&) = delete;
  ~ArenaRegion();
};

}  // namespace msopds

#endif  // MSOPDS_UTIL_ARENA_H_
