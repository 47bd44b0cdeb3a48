#include "serve/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "serve/engine.h"

namespace msopds {
namespace serve {

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "OK";
    case ServeStatus::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case ServeStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case ServeStatus::kCancelled: return "CANCELLED";
    case ServeStatus::kInvalidArgument: return "INVALID_ARGUMENT";
  }
  return "UNKNOWN";
}

const char* DegradedReasonName(DegradedReason reason) {
  switch (reason) {
    case DegradedReason::kNone: return "none";
    case DegradedReason::kNoSnapshot: return "no_snapshot";
    case DegradedReason::kSaturated: return "saturated";
    case DegradedReason::kScoringFault: return "scoring_fault";
  }
  return "unknown";
}

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options) {
  MSOPDS_CHECK_GE(options_.max_queue, 0);
  MSOPDS_CHECK_GE(options_.degrade_queue_depth, 0);
}

AdmissionDecision AdmissionController::Admit(int64_t queue_depth) {
  MSOPDS_DCHECK_GE(queue_depth, 0);
  if (options_.max_queue > 0 && queue_depth >= options_.max_queue) {
    ++rejected_;
    return AdmissionDecision::kReject;
  }
  ++admitted_;
  max_queue_depth_ = std::max(max_queue_depth_, queue_depth + 1);
  if (options_.degrade_queue_depth > 0 &&
      queue_depth >= options_.degrade_queue_depth) {
    return AdmissionDecision::kAdmitDegraded;
  }
  return AdmissionDecision::kAdmit;
}

int64_t BackoffDelayUs(const RetryPolicy& policy, int attempt, Rng* rng) {
  MSOPDS_CHECK_GE(attempt, 1);
  MSOPDS_CHECK(rng != nullptr);
  const double base =
      static_cast<double>(policy.initial_backoff_us) *
      std::pow(policy.backoff_multiplier, static_cast<double>(attempt - 1));
  const double jitter = std::min(std::max(policy.jitter, 0.0), 1.0);
  const double factor =
      jitter > 0.0 ? rng->Uniform(1.0 - jitter, 1.0 + jitter) : 1.0;
  return std::max<int64_t>(0, static_cast<int64_t>(base * factor));
}

RetryingClient::RetryingClient(ServingEngine* engine,
                               const RetryPolicy& policy, uint64_t seed)
    : engine_(engine), policy_(policy), rng_(seed) {
  MSOPDS_CHECK(engine_ != nullptr);
  MSOPDS_CHECK_GE(policy_.max_attempts, 1);
}

ServeResponse RetryingClient::Serve(const ServeRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  for (int attempt = 1;; ++attempt) {
    ServeResponse response = engine_->ServeSync(request);
    if (response.status != ServeStatus::kResourceExhausted) return response;
    if (attempt >= policy_.max_attempts) {
      ++gave_up_;
      return response;
    }
    const int64_t backoff_us = BackoffDelayUs(policy_, attempt, &rng_);
    if (policy_.budget_us > 0) {
      const int64_t elapsed_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      // Deadline-budgeted: never start a backoff the budget cannot cover.
      if (elapsed_us + backoff_us > policy_.budget_us) {
        ++gave_up_;
        return response;
      }
    }
    ++retries_;
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
  }
}

}  // namespace serve
}  // namespace msopds
