#ifndef MSOPDS_SERVE_ADMISSION_H_
#define MSOPDS_SERVE_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "serve/quantize.h"
#include "util/logging.h"
#include "util/rng.h"

namespace msopds {
namespace serve {

class ServingEngine;

/// Terminal outcome of one serve request. Everything except kOk is an
/// explicit overload/lifecycle signal: the engine never drops a promise,
/// it resolves every request with one of these.
enum class ServeStatus {
  /// Scored (full fidelity or degraded — see ServeResponse.served_degraded).
  kOk = 0,
  /// Rejected at admission: the pending queue was at max_queue. The
  /// request never entered the queue; retry after backoff (RetryingClient).
  kResourceExhausted = 1,
  /// Shed at batch pickup: the request's deadline had already passed, so
  /// the engine refused to spend scoring work on a response the caller
  /// stopped waiting for.
  kDeadlineExceeded = 2,
  /// The engine stopped before the request could be scored.
  kCancelled = 3,
  /// The request itself is malformed: k <= 0 (resolved at Submit), or a
  /// user id outside the snapshot its batch scores against (resolved at
  /// batch pickup; a publish can shrink the user count). Retrying the
  /// same request cannot help.
  kInvalidArgument = 4,
};

const char* ServeStatusName(ServeStatus status);

/// Why a response was served degraded (ServeResponse.served_degraded).
enum class DegradedReason {
  kNone = 0,
  /// No snapshot has ever been published (or the slot is empty).
  kNoSnapshot = 1,
  /// The pending queue was at/above degrade_queue_depth at admission, so
  /// the request was routed to the cheap popularity path.
  kSaturated = 2,
  /// The scoring pass threw (real worker exception or injected fault);
  /// the batch fell back to the popularity list instead of failing.
  kScoringFault = 3,
};

const char* DegradedReasonName(DegradedReason reason);

struct ServeRequest {
  int64_t user = 0;
  int k = 10;
  bool exclude_seen = true;
  /// Per-request latency budget; requests past it are shed before
  /// scoring. 0 = use the engine's default deadline_us.
  int64_t deadline_us = 0;
};

struct ServeResponse {
  /// Best-first recommendation list (≤ k entries; empty when rejected,
  /// shed, cancelled, or degraded with no fallback available).
  std::vector<int64_t> items;
  std::vector<double> scores;
  /// Version of the snapshot that served the request (0 = none). For
  /// degraded responses this is the version of the snapshot whose
  /// popularity list answered.
  uint64_t snapshot_version = 0;
  /// Storage precision of that snapshot (kFp64 when no snapshot has ever
  /// served). Paired with snapshot_version so hot-swap observers can
  /// assert which published mode answered each request.
  SnapshotPrecision snapshot_precision = SnapshotPrecision::kFp64;
  ServeStatus status = ServeStatus::kOk;
  /// True when the response came from the popularity fallback instead of
  /// the full scoring path. The bit-identical-to-offline guarantee is
  /// scoped to full-fidelity responses (served_degraded == false);
  /// degraded scores are seen-item counts, not model scores.
  bool served_degraded = false;
  DegradedReason degraded_reason = DegradedReason::kNone;
  /// Enqueue → batch pickup.
  int64_t queue_us = 0;
  /// Enqueue → response ready.
  int64_t total_us = 0;
  /// The effective deadline had passed by completion (shed responses
  /// always set it; a served response can also finish late).
  bool deadline_missed = false;

  bool ok() const { return status == ServeStatus::kOk; }
};

/// Admission-control policy knobs (a subset of EngineOptions; the engine
/// forwards them to its AdmissionController).
struct AdmissionOptions {
  /// Pending-queue cap; a Submit() that finds the queue at the cap is
  /// rejected with kResourceExhausted. 0 = unbounded (legacy behavior).
  int64_t max_queue = 0;
  /// Queue depth at/above which admitted requests are routed to the
  /// degraded popularity path instead of full scoring. 0 = disabled.
  /// Must be < max_queue to have any effect when both are set.
  int64_t degrade_queue_depth = 0;
};

enum class AdmissionDecision {
  kAdmit = 0,
  /// Admitted, but flagged for the degraded path (queue saturated).
  kAdmitDegraded = 1,
  kReject = 2,
};

/// Overload bookkeeping for the engine's Submit() path. Pure decision
/// logic plus counters — no locking; the engine calls it under its queue
/// mutex, so decisions are a deterministic function of observed depth.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  /// Decision for a request arriving when `queue_depth` requests are
  /// already pending. Updates the admitted/rejected counters and the
  /// queue-depth high-water mark.
  AdmissionDecision Admit(int64_t queue_depth);

  int64_t admitted() const { return admitted_; }
  int64_t rejected() const { return rejected_; }
  int64_t max_queue_depth() const { return max_queue_depth_; }
  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  int64_t admitted_ = 0;
  int64_t rejected_ = 0;
  int64_t max_queue_depth_ = 0;
};

/// Client-side coping policy for kResourceExhausted rejections:
/// exponential backoff with seeded jitter, bounded by attempts and by a
/// total deadline budget.
struct RetryPolicy {
  /// Total tries (first attempt + retries). Must be >= 1.
  int max_attempts = 4;
  /// Backoff before retry #1; retry #n waits initial * multiplier^(n-1),
  /// scaled by jitter.
  int64_t initial_backoff_us = 200;
  double backoff_multiplier = 2.0;
  /// Uniform jitter factor in [1 - jitter, 1 + jitter]; 0 = none.
  double jitter = 0.5;
  /// Total budget across all attempts and backoffs; a retry whose
  /// backoff would overrun the budget is abandoned. 0 = unlimited.
  int64_t budget_us = 0;
};

/// Jittered exponential backoff before retry `attempt` (1-based). Pure
/// function of (policy, attempt, rng state) — seeded callers replay the
/// same schedule.
int64_t BackoffDelayUs(const RetryPolicy& policy, int attempt, Rng* rng);

/// Blocking serve client that retries rejected requests under a
/// RetryPolicy. Shed (kDeadlineExceeded), kCancelled and
/// kInvalidArgument responses are returned as-is: the deadline is
/// already blown / the engine is gone / the request is malformed, so
/// retrying cannot help. Not thread-safe; give each client thread its
/// own instance (with its own seed).
class RetryingClient {
 public:
  RetryingClient(ServingEngine* engine, const RetryPolicy& policy,
                 uint64_t seed);

  /// Submit + wait, retrying rejections with jittered backoff.
  ServeResponse Serve(const ServeRequest& request);

  /// Backoff-retries issued so far (across all Serve calls).
  int64_t retries() const { return retries_; }
  /// Serves that exhausted attempts/budget and returned a rejection.
  int64_t gave_up() const { return gave_up_; }

 private:
  ServingEngine* engine_;
  RetryPolicy policy_;
  Rng rng_;
  int64_t retries_ = 0;
  int64_t gave_up_ = 0;
};

}  // namespace serve
}  // namespace msopds

#endif  // MSOPDS_SERVE_ADMISSION_H_
