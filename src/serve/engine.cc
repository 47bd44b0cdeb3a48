#include "serve/engine.h"

#include <algorithm>
#include <exception>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/fault.h"

namespace msopds {
namespace serve {

namespace {

int64_t MicrosSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::microseconds>(end - start)
      .count();
}

int64_t PercentileUs(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Cost of one request in batch-cost units (see EngineOptions).
int64_t RequestCost(const ServeRequest& request) {
  return std::max<int64_t>(1, request.k);
}

}  // namespace

ServingEngine::ServingEngine(const EngineOptions& options)
    : options_(options),
      admission_(AdmissionOptions{options.max_queue,
                                  options.degrade_queue_depth}) {
  MSOPDS_CHECK_GT(options_.max_batch_size, 0);
  MSOPDS_CHECK_GE(options_.max_wait_us, 0);
  MSOPDS_CHECK_GE(options_.deadline_us, 0);
  MSOPDS_CHECK_GE(options_.max_queue, 0);
  MSOPDS_CHECK_GE(options_.degrade_queue_depth, 0);
  MSOPDS_CHECK_GE(options_.max_batch_cost, 0);
  batcher_ = std::thread([this] { BatcherLoop(); });
}

ServingEngine::~ServingEngine() { Stop(); }

bool ServingEngine::Publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  MSOPDS_CHECK(snapshot != nullptr);
  MutexLock lock(publish_mu_);
  if (FaultInjector::Global().ShouldFailPublish()) {
    // Rollback: the active snapshot and its popularity fallback stay
    // live; the caller can retry against an engine that kept serving.
    publish_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // The fallback swaps first: a batch that loads the new snapshot with
  // the old catalog degrades against a one-publish-stale popularity list
  // (documented contract), never against a torn structure.
  fallback_.Exchange(PopularityCatalog::FromSnapshot(*snapshot));
  // Release store: a batcher that acquire-loads the new pointer sees the
  // fully constructed snapshot. The previous snapshot moves to the
  // retired slot; the one retired before it is released here, strictly
  // after any batch that could have loaded it has moved on.
  retired_ = snapshot_.Exchange(std::move(snapshot));
  publishes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<const ModelSnapshot> ServingEngine::CurrentSnapshot() const {
  return snapshot_.Load();
}

void ServingEngine::ResolveNow(Pending* pending, ServeStatus status) {
  ServeResponse response;
  response.status = status;
  response.total_us =
      MicrosSince(pending->enqueued, std::chrono::steady_clock::now());
  pending->promise.set_value(std::move(response));
}

std::future<ServeResponse> ServingEngine::Submit(const ServeRequest& request) {
  Pending pending;
  pending.request = request;
  pending.enqueued = std::chrono::steady_clock::now();
  std::future<ServeResponse> future = pending.promise.get_future();
  if (request.k <= 0) {
    ResolveNow(&pending, ServeStatus::kInvalidArgument);
    MutexLock lock(stats_mu_);
    ++requests_;
    ++invalid_;
    return future;
  }
  bool cancelled = false;
  bool rejected = false;
  {
    MutexLock lock(queue_mu_);
    if (stopping_) {
      // Racing past (or arriving after) Stop(): resolve, never drop.
      cancelled = true;
    } else {
      switch (admission_.Admit(static_cast<int64_t>(queue_.size()))) {
        case AdmissionDecision::kReject:
          rejected = true;
          break;
        case AdmissionDecision::kAdmitDegraded:
          pending.degraded_hint = true;
          queue_.push_back(std::move(pending));
          break;
        case AdmissionDecision::kAdmit:
          queue_.push_back(std::move(pending));
          break;
      }
    }
  }
  if (cancelled || rejected) {
    ResolveNow(&pending, cancelled ? ServeStatus::kCancelled
                                   : ServeStatus::kResourceExhausted);
  }
  {
    MutexLock lock(stats_mu_);
    ++requests_;
    if (cancelled) ++cancelled_;
  }
  if (!cancelled && !rejected) queue_cv_.NotifyOne();
  return future;
}

ServeResponse ServingEngine::ServeSync(const ServeRequest& request) {
  // Bounded by the engine's promise-resolution contract: every Submit()
  // resolves (serve, reject, shed, or cancel).
  return Submit(request).get();  // lint:allow-blocking-wait
}

void ServingEngine::BatcherLoop() {
  const auto max_wait = std::chrono::microseconds(options_.max_wait_us);
  // Idle housekeeping tick: the lint gate bans deadline-less blocking
  // waits in src/serve, so even the idle wait re-arms periodically.
  const auto idle_tick = std::chrono::milliseconds(50);
  MutexLock lock(queue_mu_);
  while (true) {
    if (!stopping_ && queue_.empty()) queue_cv_.WaitFor(lock, idle_tick);
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Micro-batch window: flush when full, when the oldest request has
    // dwelt max_wait_us, or on shutdown. Spurious wakeups re-check the
    // conditions and re-arm against the same deadline.
    const auto flush_at = queue_.front().enqueued + max_wait;
    while (!stopping_ &&
           static_cast<int>(queue_.size()) < options_.max_batch_size) {
      if (!queue_cv_.WaitUntil(lock, flush_at)) break;  // window elapsed
    }
    // Drain bounded by count and by cumulative cost: one huge-K request
    // closes its batch early instead of riding with (and starving) a
    // full complement of cheap ones.
    std::vector<Pending> batch;
    int64_t cost = 0;
    while (!queue_.empty() &&
           static_cast<int>(batch.size()) < options_.max_batch_size) {
      const int64_t next_cost = RequestCost(queue_.front().request);
      if (options_.max_batch_cost > 0 && !batch.empty() &&
          cost + next_cost > options_.max_batch_cost) {
        break;
      }
      cost += next_cost;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.Unlock();
    // Chaos point: injected latency spike between pickup and scoring —
    // queued deadlines keep running, so a spiked batch sheds.
    const int64_t delay_us = FaultInjector::Global().MaybeBatchFlushDelayUs();
    if (delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
    ScoreBatch(std::move(batch));
    lock.Lock();
  }
}

void ServingEngine::ScoreBatch(std::vector<Pending> batch) {
  const auto picked_up = std::chrono::steady_clock::now();
  const std::shared_ptr<const ModelSnapshot> snapshot = snapshot_.Load();
  const std::shared_ptr<const PopularityCatalog> fallback = fallback_.Load();

  std::vector<ServeResponse> responses(batch.size());
  int64_t shed = 0;
  int64_t invalid = 0;

  // Deadline enforcement: a request whose budget passed while it queued
  // is shed here, before any scoring work is spent on it.
  std::vector<size_t> full_members;
  std::vector<size_t> degraded_members;
  for (size_t i = 0; i < batch.size(); ++i) {
    // A user id outside this batch's snapshot is the request's fault, not
    // the batch's: it resolves kInvalidArgument and the rest is served.
    const int64_t user = batch[i].request.user;
    if (snapshot != nullptr && (user < 0 || user >= snapshot->num_users())) {
      responses[i].status = ServeStatus::kInvalidArgument;
      ++invalid;
      continue;
    }
    const int64_t deadline_us = batch[i].request.deadline_us > 0
                                    ? batch[i].request.deadline_us
                                    : options_.deadline_us;
    if (deadline_us > 0 &&
        MicrosSince(batch[i].enqueued, picked_up) > deadline_us) {
      responses[i].status = ServeStatus::kDeadlineExceeded;
      responses[i].deadline_missed = true;
      ++shed;
      continue;
    }
    if (snapshot == nullptr) {
      responses[i].degraded_reason = DegradedReason::kNoSnapshot;
      degraded_members.push_back(i);
    } else if (batch[i].degraded_hint) {
      responses[i].degraded_reason = DegradedReason::kSaturated;
      degraded_members.push_back(i);
    } else {
      full_members.push_back(i);
    }
  }

  // Full-fidelity path, grouped by (k, exclude_seen) so each group is
  // one kernel call. A scoring failure — injected worker exception from
  // the chaos harness, or a real one propagated off the thread pool —
  // demotes the whole full-fidelity set to the popularity fallback
  // instead of failing the batch.
  if (!full_members.empty()) {
    try {
      if (FaultInjector::Global().ShouldFailScoring()) {
        throw std::runtime_error("injected scoring fault");
      }
      std::map<std::pair<int, bool>, std::vector<size_t>> groups;
      for (size_t i : full_members) {
        groups[{batch[i].request.k, batch[i].request.exclude_seen}]
            .push_back(i);
      }
      for (const auto& [key, members] : groups) {
        TopKOptions options;
        options.k = key.first;
        options.exclude_seen = key.second;
        std::vector<int64_t> users;
        users.reserve(members.size());
        for (size_t i : members) users.push_back(batch[i].request.user);
        const TopKResult result = TopKForUsers(*snapshot, users, options);
        for (size_t m = 0; m < members.size(); ++m) {
          ServeResponse& response = responses[members[m]];
          const int64_t count = result.counts[m];
          const auto local = static_cast<int64_t>(m);
          response.items.assign(result.ItemsForUser(local),
                                result.ItemsForUser(local) + count);
          response.scores.assign(result.ScoresForUser(local),
                                 result.ScoresForUser(local) + count);
          response.snapshot_version = snapshot->version();
          response.snapshot_precision = snapshot->precision();
        }
      }
    } catch (const std::exception&) {
      for (size_t i : full_members) {
        responses[i].degraded_reason = DegradedReason::kScoringFault;
        degraded_members.push_back(i);
      }
    }
  }

  // Degraded path: answer from the popularity catalog (stale snapshot's
  // seen CSR for exclusion when available) instead of stalling.
  for (size_t i : degraded_members) {
    ServeFromPopularity(fallback.get(),
                        snapshot != nullptr ? &snapshot->seen() : nullptr,
                        batch[i].request, responses[i].degraded_reason,
                        &responses[i]);
    if (snapshot != nullptr) {
      responses[i].snapshot_precision = snapshot->precision();
    }
  }

  const auto done = std::chrono::steady_clock::now();
  int64_t misses = 0;
  int64_t served_degraded = 0;
  std::vector<int64_t> latencies;
  latencies.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ServeResponse& response = responses[i];
    response.queue_us = MicrosSince(batch[i].enqueued, picked_up);
    response.total_us = MicrosSince(batch[i].enqueued, done);
    if (response.status == ServeStatus::kOk) {
      const int64_t deadline_us = batch[i].request.deadline_us > 0
                                      ? batch[i].request.deadline_us
                                      : options_.deadline_us;
      response.deadline_missed =
          deadline_us > 0 && response.total_us > deadline_us;
      if (response.served_degraded) ++served_degraded;
      latencies.push_back(response.total_us);
    }
    if (response.deadline_missed) ++misses;
  }
  {
    MutexLock lock(stats_mu_);
    batches_ += 1;
    batched_requests_ += static_cast<int64_t>(batch.size());
    deadline_misses_ += misses;
    shed_ += shed;
    invalid_ += invalid;
    degraded_ += served_degraded;
    latencies_us_.insert(latencies_us_.end(), latencies.begin(),
                         latencies.end());
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(responses[i]));
  }
}

EngineStats ServingEngine::Stats() const {
  EngineStats stats;
  std::vector<int64_t> sorted;
  {
    MutexLock lock(stats_mu_);
    stats.requests = requests_;
    stats.batches = batches_;
    stats.deadline_misses = deadline_misses_;
    stats.shed = shed_;
    stats.degraded = degraded_;
    stats.cancelled = cancelled_;
    stats.invalid = invalid_;
    stats.mean_batch_size =
        batches_ > 0 ? static_cast<double>(batched_requests_) /
                           static_cast<double>(batches_)
                     : 0.0;
    sorted = latencies_us_;
  }
  {
    MutexLock lock(queue_mu_);
    stats.admitted = admission_.admitted();
    stats.rejected = admission_.rejected();
    stats.max_queue_depth = admission_.max_queue_depth();
  }
  stats.publishes = publishes_.load(std::memory_order_relaxed);
  stats.publish_failures = publish_failures_.load(std::memory_order_relaxed);
  std::sort(sorted.begin(), sorted.end());
  stats.p50_us = PercentileUs(sorted, 0.50);
  stats.p95_us = PercentileUs(sorted, 0.95);
  stats.p99_us = PercentileUs(sorted, 0.99);
  stats.max_us = sorted.empty() ? 0 : sorted.back();
  return stats;
}

void ServingEngine::Stop() {
  // The thread handle is swapped out under queue_mu_ and joined on a
  // private copy: two concurrent Stop() calls (say destructor vs. an
  // explicit shutdown path) must never both reach join() on the same
  // std::thread, which is undefined behavior. The loser of the swap sees
  // an empty handle and only drains stragglers.
  std::thread batcher;
  {
    MutexLock lock(queue_mu_);
    if (stopping_ && !batcher_.joinable()) return;
    stopping_ = true;
    batcher.swap(batcher_);
  }
  queue_cv_.NotifyAll();
  if (batcher.joinable()) batcher.join();
  // The batcher drains by scoring until the queue is empty, but a Submit
  // that passed the stopping_ check before we set it can still land an
  // entry after the batcher's last look. Resolve such stragglers with
  // kCancelled — a promise is never dropped.
  std::deque<Pending> stragglers;
  {
    MutexLock lock(queue_mu_);
    stragglers.swap(queue_);
  }
  if (!stragglers.empty()) {
    for (Pending& pending : stragglers) {
      ResolveNow(&pending, ServeStatus::kCancelled);
    }
    MutexLock lock(stats_mu_);
    cancelled_ += static_cast<int64_t>(stragglers.size());
  }
}

}  // namespace serve
}  // namespace msopds
