// Serve-path chaos harness replay tests: under a seeded fault plan
// (publish failures + batch-flush latency spikes + scoring exceptions),
// a sequentially driven engine must produce the identical trace —
// statuses, degraded markers, shed/served split, snapshot versions, and
// every full-fidelity item list — at any kernel thread count and on any
// rerun. Sequential ServeSync gives one micro-batch per request, so the
// per-site fault streams are queried in a fixed order regardless of how
// many threads the scoring kernel fans out to.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "serve/admission.h"
#include "serve/engine.h"
#include "serve/model_snapshot.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace msopds {
namespace serve {
namespace {

std::shared_ptr<const ModelSnapshot> ChaosSnapshot(uint64_t version) {
  const int64_t num_users = 16, num_items = 40;
  std::vector<double> user_factors;
  for (int64_t u = 0; u < num_users; ++u) {
    user_factors.push_back(1.0 + 0.01 * static_cast<double>(u));
  }
  std::vector<double> item_factors;
  for (int64_t i = 0; i < num_items; ++i) {
    // Version-dependent scores so a response provably came from the
    // snapshot whose version it reports.
    item_factors.push_back(
        static_cast<double>((i * 7 + static_cast<int64_t>(version) * 13) %
                            num_items));
  }
  std::vector<Rating> ratings;
  for (int64_t u = 0; u < num_users; ++u) {
    ratings.push_back({u, u % num_items, 5.0});
    ratings.push_back({u, (u * 3 + 1) % num_items, 4.0});
  }
  SnapshotOptions options;
  options.version = version;
  return std::make_shared<const ModelSnapshot>(
      num_users, num_items, /*dim=*/1, std::move(user_factors),
      std::move(item_factors), std::vector<double>{}, std::vector<double>{},
      /*offset=*/0.0,
      SeenItemsCsr::FromRatings(num_users, num_items, ratings), options);
}

struct ChaosTrace {
  /// One line per request: status|degraded|reason|version|items.
  std::vector<std::string> responses;
  int64_t shed = 0;
  int64_t degraded = 0;
  int64_t publishes = 0;
  int64_t publish_failures = 0;

  bool operator==(const ChaosTrace& other) const {
    return responses == other.responses && shed == other.shed &&
           degraded == other.degraded && publishes == other.publishes &&
           publish_failures == other.publish_failures;
  }
};

std::string Fingerprint(const ServeResponse& response) {
  std::ostringstream out;
  out << ServeStatusName(response.status) << '|' << response.served_degraded
      << '|' << DegradedReasonName(response.degraded_reason) << '|'
      << response.snapshot_version << '|';
  for (int64_t item : response.items) out << item << ',';
  return out.str();
}

ChaosTrace RunChaos(uint64_t fault_seed, int threads) {
  ThreadPool& pool = ThreadPool::Global();
  const int previous = pool.num_threads();
  pool.SetNumThreads(threads);

  FaultConfig fault;
  fault.seed = fault_seed;
  fault.publish_fail_probability = 0.2;
  fault.batch_delay_probability = 0.3;
  fault.batch_delay_us = 200000;  // spiked batches overshoot the deadline
  fault.scoring_error_probability = 0.3;
  ScopedFaultInjection inject(fault);

  ChaosTrace trace;
  {
    EngineOptions options;
    options.max_wait_us = 0;  // one micro-batch per request
    // 100ms: only spiked batches shed. An un-spiked batch scores in well
    // under a millisecond, so the wide margin keeps a loaded host from
    // shedding one the trace expects to be served.
    options.deadline_us = 100000;
    ServingEngine engine(options);
    uint64_t version = 1;
    // First publish must land (consuming the publish stream
    // deterministically) so full-fidelity requests have a snapshot.
    while (!engine.Publish(ChaosSnapshot(version))) {
    }
    for (int i = 0; i < 40; ++i) {
      if (i > 0 && i % 10 == 0) {
        // Mid-traffic republish attempt; failures roll back and serving
        // continues on the previous version.
        engine.Publish(ChaosSnapshot(++version));
      }
      ServeRequest request;
      request.user = i % 16;
      request.k = 5;
      trace.responses.push_back(Fingerprint(engine.ServeSync(request)));
    }
    const EngineStats stats = engine.Stats();
    trace.shed = stats.shed;
    trace.degraded = stats.degraded;
    trace.publishes = stats.publishes;
    trace.publish_failures = stats.publish_failures;
  }
  pool.SetNumThreads(previous);
  return trace;
}

TEST(ServeChaosTest, ReplayIsBitStableAcrossRuns) {
  const ChaosTrace a = RunChaos(/*fault_seed=*/21, /*threads=*/1);
  const ChaosTrace b = RunChaos(/*fault_seed=*/21, /*threads=*/1);
  EXPECT_EQ(a, b);
}

TEST(ServeChaosTest, ReplayIsBitStableAcrossThreadCounts) {
  const ChaosTrace t1 = RunChaos(/*fault_seed=*/21, /*threads=*/1);
  const ChaosTrace t4 = RunChaos(/*fault_seed=*/21, /*threads=*/4);
  // Identical reject/shed/degraded counts AND identical full-fidelity
  // top-K lists: the determinism contract survives the chaos harness.
  EXPECT_EQ(t1, t4);
}

TEST(ServeChaosTest, FaultPlanActuallyFires) {
  const ChaosTrace trace = RunChaos(/*fault_seed=*/21, /*threads=*/1);
  // With p=0.3 over 40 batches / publishes at p=0.2, a trace with zero
  // injected events would mean the hooks are dead, not that we got
  // lucky.
  EXPECT_GT(trace.shed + trace.degraded + trace.publish_failures, 0);
  EXPECT_GE(trace.publishes, 1);
  EXPECT_EQ(trace.responses.size(), 40u);
}

// The engine keeps answering under chaos: every request resolves with an
// explicit status, never a hang or dropped promise.
TEST(ServeChaosTest, EveryRequestResolvesExplicitly) {
  const ChaosTrace trace = RunChaos(/*fault_seed=*/33, /*threads=*/1);
  for (const std::string& line : trace.responses) {
    EXPECT_TRUE(line.rfind("OK|", 0) == 0 ||
                line.rfind("DEADLINE_EXCEEDED|", 0) == 0)
        << line;
  }
}

}  // namespace
}  // namespace serve
}  // namespace msopds
