#ifndef MSOPDS_SERVE_ENGINE_H_
#define MSOPDS_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "serve/degraded.h"
#include "serve/model_snapshot.h"
#include "serve/topk.h"
#include "util/sync.h"

namespace msopds {
namespace serve {

struct EngineOptions {
  /// Micro-batch flush threshold: the batcher drains up to this many
  /// requests per scoring pass.
  int max_batch_size = 64;
  /// Maximum time the oldest queued request waits for the batch to fill
  /// before a partial batch is flushed.
  int64_t max_wait_us = 200;
  /// Default per-request latency budget, ENFORCED: a request whose
  /// budget has already passed at batch pickup is shed with
  /// kDeadlineExceeded before any scoring work is spent on it (a served
  /// response can still finish late and is then only flagged). 0
  /// disables; ServeRequest::deadline_us overrides per request.
  int64_t deadline_us = 0;
  /// Pending-queue cap: Submit() on a full queue resolves immediately
  /// with kResourceExhausted instead of growing the queue without bound.
  /// 0 = unbounded (legacy behavior).
  int64_t max_queue = 0;
  /// Queue depth at/above which admitted requests are served from the
  /// popularity fallback instead of the full scoring path (see
  /// serve/degraded.h). 0 = disabled.
  int64_t degrade_queue_depth = 0;
  /// Cost cap per scoring batch, in units of requested k (each request
  /// costs max(1, k)): the batcher closes a batch early rather than let
  /// one huge-K request ride with (and starve) a full complement of
  /// small ones. A single request always flushes regardless of cost.
  /// 0 = disabled (batches bounded by max_batch_size only).
  int64_t max_batch_cost = 0;
};

struct EngineStats {
  int64_t requests = 0;
  int64_t batches = 0;
  int64_t deadline_misses = 0;
  /// Snapshots published (hot-swaps) since construction.
  int64_t publishes = 0;
  /// Publish() calls that failed (fault-injected) and rolled back.
  int64_t publish_failures = 0;
  /// Admission/overload counters. requests = admitted + rejected +
  /// cancelled-at-submit + invalid-at-submit; admitted = scored (full or
  /// degraded) + shed + invalid-at-pickup + cancelled-after-admission.
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  /// Requests answered kInvalidArgument: k <= 0 at Submit (never
  /// admitted), or a user outside the batch's snapshot at pickup.
  int64_t invalid = 0;
  int64_t degraded = 0;
  int64_t cancelled = 0;
  /// High-water mark of the pending queue depth.
  int64_t max_queue_depth = 0;
  double mean_batch_size = 0.0;
  /// Percentiles of enqueue-to-completion latency, microseconds, over
  /// served (kOk) responses only — rejected/shed/cancelled requests
  /// resolve fast by construction and would mask queueing latency.
  int64_t p50_us = 0;
  int64_t p95_us = 0;
  int64_t p99_us = 0;
  int64_t max_us = 0;
};

/// Atomic shared_ptr slot: a micro critical section (lock =
/// exchange-acquire on a bool, unlock = release store) around a pointer
/// copy/swap. Semantically this is std::atomic<std::shared_ptr<T>>,
/// deliberately hand-rolled: libstdc++'s _Sp_atomic unlocks the
/// *reader's* critical section with relaxed ordering
/// (shared_ptr_atomic.h, load() ends in unlock(memory_order_relaxed)),
/// so the reader's plain read of the pointer field has no release edge
/// toward a later writer's plain write — formally a data race, and
/// ThreadSanitizer reports it as one. Here both sides release on unlock,
/// making the protocol verifiable: the serve suite runs under TSan in
/// tools/check.sh. Hold times are a shared_ptr copy (one refcount
/// increment), so a publish can delay a reader by nanoseconds but never
/// blocks it behind scoring work.
template <typename T>
class AtomicPtrSlot {
 public:
  /// Acquire-copies the current pointer (may be null).
  std::shared_ptr<T> Load() const {
    Lock();
    std::shared_ptr<T> copy = value_;
    Unlock();
    return copy;
  }

  /// Installs `next`, returning the previously active pointer.
  std::shared_ptr<T> Exchange(std::shared_ptr<T> next) {
    Lock();
    value_.swap(next);
    Unlock();
    return next;
  }

 private:
  void Lock() const {
    while (locked_.exchange(true, std::memory_order_acquire)) {
    }
  }
  void Unlock() const { locked_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<T> value_;
};

/// The active-snapshot slot (see AtomicPtrSlot).
using SnapshotSlot = AtomicPtrSlot<const ModelSnapshot>;

/// Online top-K serving engine: a micro-batching request queue in front
/// of the blocked top-K kernel, reading from a hot-swappable immutable
/// snapshot, with admission control and graceful degradation so the
/// engine keeps answering — bounded queue, bounded latency — while the
/// operator retrains and attackers poison (the paper's multiplayer
/// setting assumes the victim serves throughout).
///
/// Hot swap: the active snapshot lives in a SnapshotSlot (an atomic
/// shared_ptr with TSan-verifiable acquire/release ordering — see
/// above). Publish() exchanges the new pointer in; the batcher loads it
/// at the start of every scoring pass, so a batch sees a
/// fully-constructed snapshot or the previous one — never a partial
/// write — and requests already being scored finish against the snapshot
/// they started with. The engine additionally pins the previously active
/// snapshot (double buffering) so the common retrain→republish cycle
/// never pays a teardown on the publish path; the old-old snapshot is
/// released on the *next* publish, by which time no batch can reference
/// it. A publish that fails (fault-injected) rolls back: the previous
/// snapshot and popularity fallback stay live untouched.
///
/// Overload: Submit() runs admission control (serve/admission.h) — a
/// full queue rejects with kResourceExhausted, a saturated queue routes
/// to the popularity fallback (serve/degraded.h), and requests whose
/// deadline passed while queued are shed at batch pickup instead of
/// scored. Every promise is resolved: shutdown drains unscored requests
/// with kCancelled, and Submit() during/after Stop() resolves
/// immediately with kCancelled rather than CHECK-failing.
///
/// Determinism: full-fidelity scoring runs through serve/topk on the
/// global thread pool, so a response's item list is bit-identical to the
/// offline reference (recsys/metrics.h TopKItems) for the same snapshot
/// at any thread count; degraded responses are a pure function of the
/// snapshot's seen CSR and carry served_degraded so the guarantee stays
/// scoped to full-fidelity responses.
class ServingEngine {
 public:
  explicit ServingEngine(const EngineOptions& options = {});
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Atomically replaces the active snapshot (and rebuilds the
  /// popularity fallback from it); never blocks readers. Returns false —
  /// keeping the previous snapshot live — when the publish fails (the
  /// chaos harness injects failures here; see util/fault.h
  /// kSnapshotPublish).
  bool Publish(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The currently active snapshot (nullptr before the first Publish).
  std::shared_ptr<const ModelSnapshot> CurrentSnapshot() const;

  /// Enqueues a request; the future resolves once its micro-batch is
  /// scored, or immediately with kInvalidArgument (k <= 0) /
  /// kResourceExhausted (queue full) / kCancelled (engine stopped). A
  /// user id outside the snapshot its batch loads resolves
  /// kInvalidArgument at pickup, and the rest of the batch is served.
  /// Requests admitted before any Publish() resolve degraded with an
  /// empty list and snapshot_version 0.
  std::future<ServeResponse> Submit(const ServeRequest& request);

  /// Submit + wait. The engine resolves every promise (reject, shed,
  /// cancel, or serve), so this wait is bounded by the batcher's
  /// progress, not by the caller's luck.
  ServeResponse ServeSync(const ServeRequest& request);

  /// Aggregate counters and latency percentiles so far.
  EngineStats Stats() const;

  /// Stops the batcher: requests already queued are scored (graceful
  /// drain), anything the batcher cannot pick up — including requests
  /// that race past a completed drain — resolves with kCancelled, never
  /// a dropped promise. Called by the destructor; idempotent.
  void Stop();

 private:
  struct Pending {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// Admission routed this request to the degraded path (saturation).
    bool degraded_hint = false;
  };

  void BatcherLoop() MSOPDS_EXCLUDES(queue_mu_);
  void ScoreBatch(std::vector<Pending> batch)
      MSOPDS_EXCLUDES(queue_mu_, stats_mu_);
  /// Resolves `pending` with an immediate non-scored response.
  void ResolveNow(Pending* pending, ServeStatus status);

  const EngineOptions options_;

  SnapshotSlot snapshot_;    // determinism-lint: unguarded(internally synchronized slot)
  /// Popularity fallback derived from the active snapshot (same slot
  /// protocol; rebuilt on every successful publish).
  AtomicPtrSlot<const PopularityCatalog> fallback_;  // determinism-lint: unguarded(internally synchronized slot)
  // Double buffer: pins the previously active snapshot until the next
  // publish (see class comment). Only Publish() touches it.
  std::shared_ptr<const ModelSnapshot> retired_ MSOPDS_GUARDED_BY(publish_mu_);
  Mutex publish_mu_;

  mutable Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Pending> queue_ MSOPDS_GUARDED_BY(queue_mu_);
  AdmissionController admission_ MSOPDS_GUARDED_BY(queue_mu_);
  bool stopping_ MSOPDS_GUARDED_BY(queue_mu_) = false;

  mutable Mutex stats_mu_;
  int64_t requests_ MSOPDS_GUARDED_BY(stats_mu_) = 0;
  int64_t batches_ MSOPDS_GUARDED_BY(stats_mu_) = 0;
  int64_t batched_requests_ MSOPDS_GUARDED_BY(stats_mu_) = 0;
  int64_t deadline_misses_ MSOPDS_GUARDED_BY(stats_mu_) = 0;
  int64_t shed_ MSOPDS_GUARDED_BY(stats_mu_) = 0;
  int64_t degraded_ MSOPDS_GUARDED_BY(stats_mu_) = 0;
  int64_t cancelled_ MSOPDS_GUARDED_BY(stats_mu_) = 0;
  int64_t invalid_ MSOPDS_GUARDED_BY(stats_mu_) = 0;
  std::atomic<int64_t> publishes_{0};
  std::atomic<int64_t> publish_failures_{0};
  std::vector<int64_t> latencies_us_ MSOPDS_GUARDED_BY(stats_mu_);

  // Joined through a queue_mu_ handshake: Stop() swaps the handle out
  // under queue_mu_ and joins its private copy, so concurrent Stop()
  // calls never race on join() (latent discipline finding; see
  // engine_test.ConcurrentStopIsSafe).
  std::thread batcher_ MSOPDS_GUARDED_BY(queue_mu_);
};

}  // namespace serve
}  // namespace msopds

#endif  // MSOPDS_SERVE_ENGINE_H_
