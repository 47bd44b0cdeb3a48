// Serving-engine load generator: QPS, latency percentiles, and overload/
// chaos robustness counters vs kernel thread count, written to a JSON
// table (BENCH_serving.json by default).
//
// Load modes per thread count:
//   closed    N client threads issue Submit().get() back-to-back through
//             a retry/backoff client — measures the engine's saturated
//             throughput and in-line latency.
//   open      requests arrive on a fixed schedule at --qps regardless of
//             completions — measures queueing latency under a target load.
//   overload  (--overload=1, default) paced arrivals at --overload_factor
//             times the measured closed-loop capacity, once with
//             admission control ON (queue cap + deadline shedding:
//             bounded queue depth, bounded p99 for admitted requests) and
//             once with the cap DISABLED (unbounded queue growth) — the
//             two curves the robustness trajectory tracks.
//   chaos     (any --fault_* probability > 0) sequential deterministic
//             replay under injected publish failures, batch-flush latency
//             spikes, and scoring faults: identical --fault_seed gives
//             identical reject/shed/degraded counts at any thread count.
// A publisher thread hot-swaps a fresh snapshot every --swap_ms
// milliseconds during closed/open/overload phases; the chaos phase
// republishes deterministically every 50 requests instead.
//
// Flags (a malformed or out-of-range value exits 2, naming the flag):
//   --users=N --items=N --dim=D   synthetic snapshot size, each >= 1
//                                 (default 4000 x 8000 x 32)
//   --k=N                         list length per request, >= 1
//                                 (default 10)
//   --seconds=F                   measurement window per row, in
//                                 [0, 3600] (default 1.0)
//   --clients=N                   closed-loop client threads, in [1, 256]
//                                 (default 8)
//   --qps=N                       open-loop arrival rate, in [1, 1e7]
//                                 (default 2000)
//   --threads=a,b,c               kernel thread counts, each in [1, 256]
//                                 (default 1,2,4)
//   --batch=N --wait_us=N         micro-batcher shape, batch >= 1
//                                 (default 64 / 200)
//   --max_queue=N                 admission queue cap (default 0 = off for
//                                 closed/open rows; overload row uses
//                                 4*batch when set to 0)
//   --deadline_us=N               enforced per-request deadline (default
//                                 0 = off; overload row uses 50000)
//   --degrade_depth=N             queue depth that routes to the
//                                 popularity fallback (default 0 = off)
//   --max_batch_cost=N            per-batch cost cap in units of k
//                                 (default 0 = off)
//   --retry_attempts=N            retry client attempts, >= 1 (default 4)
//   --retry_budget_us=N           retry client total budget (default
//                                 200000)
//   --overload=0/1                emit the overload pair (default 1)
//   --overload_factor=F           offered load vs capacity, in [0, 100]
//                                 (default 2.0)
//   --chaos_requests=N            chaos phase length (default 200)
//   --fault_seed=N --fault_publish=P --fault_score=P
//   --fault_batch_delay=P --fault_batch_delay_us=N
//                                 chaos fault plan (all off by default);
//                                 probabilities in [0, 1], except
//                                 --fault_publish in [0, 0.99]
//   --precision=fp64|int8         snapshot storage precision published to
//                                 the engine (default fp64); rows record it
//   --swap_ms=N                   snapshot republish period (default 100;
//                                 0 disables)
//   --seed=N                      RNG seed (default 7)
//   --json_out=PATH               output table; parent directories are
//                                 created (default BENCH_serving.json)
// Counts and durations not bounded above must be >= 0.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "recsys/matrix_factorization.h"
#include "serve/admission.h"
#include "serve/engine.h"
#include "serve/model_snapshot.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace msopds {
namespace {

struct ServeBenchFlags {
  int64_t users = 4000;
  int64_t items = 8000;
  int64_t dim = 32;
  int k = 10;
  double seconds = 1.0;
  int clients = 8;
  int qps = 2000;
  std::vector<int> threads = {1, 2, 4};
  int batch = 64;
  int64_t wait_us = 200;
  int64_t max_queue = 0;
  int64_t deadline_us = 0;
  int64_t degrade_depth = 0;
  int64_t max_batch_cost = 0;
  int retry_attempts = 4;
  int64_t retry_budget_us = 200000;
  bool overload = true;
  double overload_factor = 2.0;
  int chaos_requests = 200;
  uint64_t fault_seed = 17;
  double fault_publish = 0.0;
  double fault_score = 0.0;
  double fault_batch_delay = 0.0;
  int64_t fault_batch_delay_us = 50000;
  int64_t swap_ms = 100;
  std::string precision = "fp64";
  uint64_t seed = 7;
  std::string json_out = "BENCH_serving.json";

  bool chaos_enabled() const {
    return fault_publish > 0.0 || fault_score > 0.0 ||
           fault_batch_delay > 0.0;
  }

  Status Parse(int argc, char** argv) {
    FlagSet flags(argv[0]);
    flags.Int("--users", &users, 1);
    flags.Int("--items", &items, 1);
    flags.Int("--dim", &dim, 1);
    flags.Int("--k", &k, 1);
    flags.Double("--seconds", &seconds, 0.0, 3600.0);
    flags.Int("--clients", &clients, 1, 256);
    flags.Int("--qps", &qps, 1, 10000000);
    flags.IntList("--threads", &threads, 1, ThreadPool::kMaxThreads);
    flags.Int("--batch", &batch, 1);
    flags.Int("--wait_us", &wait_us, 0);
    flags.Int("--max_queue", &max_queue, 0);
    flags.Int("--deadline_us", &deadline_us, 0);
    flags.Int("--degrade_depth", &degrade_depth, 0);
    flags.Int("--max_batch_cost", &max_batch_cost, 0);
    flags.Int("--retry_attempts", &retry_attempts, 1);
    flags.Int("--retry_budget_us", &retry_budget_us, 0);
    flags.Bool("--overload", &overload);
    flags.Double("--overload_factor", &overload_factor, 0.0, 100.0);
    flags.Int("--chaos_requests", &chaos_requests, 0);
    flags.Int("--fault_seed", &fault_seed, 0);
    // The chaos phase needs its first publish to land.
    flags.Double("--fault_publish", &fault_publish, 0.0, 0.99);
    flags.Double("--fault_score", &fault_score, 0.0, 1.0);
    flags.Double("--fault_batch_delay", &fault_batch_delay, 0.0, 1.0);
    flags.Int("--fault_batch_delay_us", &fault_batch_delay_us, 0);
    flags.Int("--swap_ms", &swap_ms, 0);
    flags.Choice("--precision", &precision, {"fp64", "int8"});
    flags.Int("--seed", &seed, 0);
    flags.String("--json_out", &json_out);
    return flags.Parse(argc, argv);
  }

  serve::EngineOptions MakeEngineOptions() const {
    serve::EngineOptions options;
    options.max_batch_size = batch;
    options.max_wait_us = wait_us;
    options.deadline_us = deadline_us;
    options.max_queue = max_queue;
    options.degrade_queue_depth = degrade_depth;
    options.max_batch_cost = max_batch_cost;
    return options;
  }

  serve::RetryPolicy MakeRetryPolicy() const {
    serve::RetryPolicy policy;
    policy.max_attempts = retry_attempts;
    policy.budget_us = retry_budget_us;
    return policy;
  }
};

// An untrained (randomly initialized) MF snapshot is enough for a latency
// benchmark — the scoring cost depends only on the shapes.
std::shared_ptr<const serve::ModelSnapshot> MakeSnapshot(
    const ServeBenchFlags& flags, uint64_t version) {
  Rng rng(flags.seed + version);
  Dataset dataset;
  dataset.name = "serve_bench";
  dataset.num_users = flags.users;
  dataset.num_items = flags.items;
  // ~20 seen items per user so exclusion has realistic work to do.
  for (int64_t u = 0; u < flags.users; ++u) {
    for (int r = 0; r < 20; ++r) {
      const int64_t item = rng.UniformInt(flags.items);
      if (!dataset.HasRating(u, item)) {
        dataset.ratings.push_back({u, item, 5.0});
      }
    }
  }
  MfConfig config;
  config.latent_dim = flags.dim;
  MatrixFactorization model(flags.users, flags.items, config, 3.5, &rng);
  serve::SnapshotOptions options;
  options.version = version;
  options.source = "mf-bench";
  serve::ParseSnapshotPrecision(flags.precision, &options.precision);
  return serve::ModelSnapshot::FromModel(&model, dataset, options);
}

struct RowResult {
  std::string mode;
  int threads = 0;
  int64_t requests = 0;
  double seconds = 0.0;
  double qps = 0.0;
  int64_t retries = 0;
  serve::EngineStats stats;
};

// Publisher sidecar: republishes a snapshot every swap_ms until stopped.
class SwapLoop {
 public:
  SwapLoop(serve::ServingEngine* engine, const ServeBenchFlags& flags)
      : engine_(engine), flags_(flags) {
    if (flags_.swap_ms > 0) {
      worker_ = std::thread([this] { Loop(); });
    }
  }
  ~SwapLoop() {
    stop_.store(true);
    if (worker_.joinable()) worker_.join();
  }

 private:
  void Loop() {
    uint64_t version = 2;
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(flags_.swap_ms));
      if (stop_.load()) break;
      engine_->Publish(MakeSnapshot(flags_, version++));
    }
  }

  serve::ServingEngine* engine_;
  ServeBenchFlags flags_;
  std::atomic<bool> stop_{false};
  std::thread worker_;
};

RowResult RunClosedLoop(const ServeBenchFlags& flags, int threads) {
  ThreadPool::Global().SetNumThreads(threads);
  serve::ServingEngine engine(flags.MakeEngineOptions());
  engine.Publish(MakeSnapshot(flags, 1));
  SwapLoop swaps(&engine, flags);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> retries{0};
  std::vector<std::thread> clients;
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < flags.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(flags.seed * 1000 + static_cast<uint64_t>(c));
      serve::RetryingClient client(
          &engine, flags.MakeRetryPolicy(),
          flags.seed * 777 + static_cast<uint64_t>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        serve::ServeRequest request;
        request.user = rng.UniformInt(flags.users);
        request.k = flags.k;
        client.Serve(request);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      retries.fetch_add(client.retries(), std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(flags.seconds));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RowResult row;
  row.mode = "closed";
  row.threads = threads;
  row.requests = completed.load();
  row.seconds = elapsed;
  row.qps = elapsed > 0 ? static_cast<double>(row.requests) / elapsed : 0.0;
  row.retries = retries.load();
  row.stats = engine.Stats();
  return row;
}

// Paced arrivals at `target_qps` with engine options `options`; shared by
// the open-loop and overload rows.
RowResult RunPaced(const ServeBenchFlags& flags, int threads,
                   const serve::EngineOptions& options, double target_qps,
                   const std::string& mode) {
  ThreadPool::Global().SetNumThreads(threads);
  serve::ServingEngine engine(options);
  engine.Publish(MakeSnapshot(flags, 1));
  SwapLoop swaps(&engine, flags);

  Rng rng(flags.seed);
  const auto start = std::chrono::steady_clock::now();
  const auto period =
      std::chrono::nanoseconds(static_cast<int64_t>(1e9 / target_qps));
  const int64_t total =
      static_cast<int64_t>(flags.seconds * target_qps);
  std::vector<std::future<serve::ServeResponse>> inflight;
  inflight.reserve(static_cast<size_t>(total));
  for (int64_t i = 0; i < total; ++i) {
    std::this_thread::sleep_until(start + period * i);
    serve::ServeRequest request;
    request.user = rng.UniformInt(flags.users);
    request.k = flags.k;
    inflight.push_back(engine.Submit(request));
  }
  for (auto& future : inflight) future.get();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RowResult row;
  row.mode = mode;
  row.threads = threads;
  row.requests = total;
  row.seconds = elapsed;
  row.qps = elapsed > 0 ? static_cast<double>(total) / elapsed : 0.0;
  row.stats = engine.Stats();
  return row;
}

RowResult RunOpenLoop(const ServeBenchFlags& flags, int threads) {
  return RunPaced(flags, threads, flags.MakeEngineOptions(),
                  static_cast<double>(flags.qps), "open");
}

// Offered load >= overload_factor x measured capacity, with admission
// control on (bounded queue depth, shed past-deadline requests, bounded
// p99 for admitted requests) or off (queue and latency grow with the
// backlog) — the two curves of the robustness acceptance criterion.
RowResult RunOverload(const ServeBenchFlags& flags, int threads,
                      double capacity_qps, bool capped) {
  serve::EngineOptions options = flags.MakeEngineOptions();
  if (capped) {
    if (options.max_queue == 0) options.max_queue = 4 * flags.batch;
    if (options.deadline_us == 0) options.deadline_us = 50000;
  } else {
    options.max_queue = 0;
    options.deadline_us = 0;
    options.degrade_queue_depth = 0;
  }
  const double offered =
      std::max(1.0, capacity_qps * flags.overload_factor);
  return RunPaced(flags, threads, options, offered,
                  capped ? "overload_capped" : "overload_uncapped");
}

// Deterministic chaos replay: sequential requests (one micro-batch each)
// under the configured fault plan, republishing every 50 requests. The
// reject/shed/degraded counters and every full-fidelity list are a pure
// function of --fault_seed and the request sequence — identical at any
// kernel thread count.
RowResult RunChaos(const ServeBenchFlags& flags, int threads) {
  ThreadPool::Global().SetNumThreads(threads);
  FaultConfig fault;
  fault.seed = flags.fault_seed;
  fault.publish_fail_probability = flags.fault_publish;
  fault.scoring_error_probability = flags.fault_score;
  fault.batch_delay_probability = flags.fault_batch_delay;
  fault.batch_delay_us = flags.fault_batch_delay_us;
  ScopedFaultInjection inject(fault);

  serve::EngineOptions options = flags.MakeEngineOptions();
  options.max_wait_us = 0;  // flush each request immediately
  if (options.deadline_us == 0 && flags.fault_batch_delay > 0.0) {
    // A spiked batch (batch_delay_us) must overshoot this and an unspiked
    // one must not, even when the scheduler hiccups: a fifth of the spike
    // keeps both margins wide (10ms vs. a 50ms default spike, ~100x the
    // idle pickup latency), so the shed count stays a pure function of
    // the fault plan.
    options.deadline_us = std::max<int64_t>(1, flags.fault_batch_delay_us / 5);
  }
  serve::ServingEngine engine(options);
  uint64_t version = 1;
  while (!engine.Publish(MakeSnapshot(flags, version))) ++version;

  Rng rng(flags.seed);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < flags.chaos_requests; ++i) {
    if (i > 0 && i % 50 == 0) {
      engine.Publish(MakeSnapshot(flags, ++version));
    }
    serve::ServeRequest request;
    request.user = rng.UniformInt(flags.users);
    request.k = flags.k;
    engine.ServeSync(request);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RowResult row;
  row.mode = "chaos";
  row.threads = threads;
  row.requests = flags.chaos_requests;
  row.seconds = elapsed;
  row.qps = elapsed > 0
                ? static_cast<double>(flags.chaos_requests) / elapsed
                : 0.0;
  row.stats = engine.Stats();
  return row;
}

void WriteTable(const ServeBenchFlags& flags,
                const std::vector<RowResult>& rows) {
  JsonWriter json;
  json.BeginObject();
  json.Key("users").Int(flags.users);
  json.Key("items").Int(flags.items);
  json.Key("dim").Int(flags.dim);
  json.Key("k").Int(flags.k);
  json.Key("clients").Int(flags.clients);
  json.Key("target_qps").Int(flags.qps);
  json.Key("max_batch_size").Int(flags.batch);
  json.Key("max_wait_us").Int(flags.wait_us);
  json.Key("max_queue").Int(flags.max_queue);
  json.Key("deadline_us").Int(flags.deadline_us);
  json.Key("degrade_depth").Int(flags.degrade_depth);
  json.Key("max_batch_cost").Int(flags.max_batch_cost);
  json.Key("overload_factor").Double(flags.overload_factor);
  json.Key("fault_seed").Int(static_cast<int64_t>(flags.fault_seed));
  json.Key("fault_publish").Double(flags.fault_publish);
  json.Key("fault_score").Double(flags.fault_score);
  json.Key("fault_batch_delay").Double(flags.fault_batch_delay);
  json.Key("fault_batch_delay_us").Int(flags.fault_batch_delay_us);
  json.Key("swap_ms").Int(flags.swap_ms);
  json.Key("cases").BeginArray();
  for (const RowResult& row : rows) {
    json.BeginObject();
    json.Key("mode").String(row.mode);
    json.Key("threads").Int(row.threads);
    json.Key("requests").Int(row.requests);
    json.Key("seconds").Double(row.seconds);
    json.Key("qps").Double(row.qps);
    json.Key("p50_us").Int(row.stats.p50_us);
    json.Key("p95_us").Int(row.stats.p95_us);
    json.Key("p99_us").Int(row.stats.p99_us);
    json.Key("max_us").Int(row.stats.max_us);
    json.Key("batches").Int(row.stats.batches);
    json.Key("mean_batch_size").Double(row.stats.mean_batch_size);
    json.Key("publishes").Int(row.stats.publishes);
    // Robustness counters: the shed/reject/degraded trajectory, beside
    // the latency columns.
    json.Key("precision").String(flags.precision);
    json.Key("admitted").Int(row.stats.admitted);
    json.Key("rejected").Int(row.stats.rejected);
    json.Key("shed").Int(row.stats.shed);
    json.Key("degraded").Int(row.stats.degraded);
    json.Key("cancelled").Int(row.stats.cancelled);
    json.Key("retries").Int(row.retries);
    json.Key("deadline_misses").Int(row.stats.deadline_misses);
    json.Key("max_queue_depth").Int(row.stats.max_queue_depth);
    json.Key("publish_failures").Int(row.stats.publish_failures);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (WriteJsonFile(flags.json_out, json.TakeString())) {
    std::fprintf(stderr, "[serve] wrote %zu row(s) to %s\n", rows.size(),
                 flags.json_out.c_str());
  }
}

void PrintRow(const RowResult& row) {
  std::printf(
      "%-18s %8d %10lld %12.1f %10lld %10lld %8lld %8lld %8lld %8lld\n",
      row.mode.c_str(), row.threads, static_cast<long long>(row.requests),
      row.qps, static_cast<long long>(row.stats.p50_us),
      static_cast<long long>(row.stats.p99_us),
      static_cast<long long>(row.stats.rejected),
      static_cast<long long>(row.stats.shed),
      static_cast<long long>(row.stats.degraded),
      static_cast<long long>(row.stats.max_queue_depth));
}

int Main(int argc, char** argv) {
  ServeBenchFlags flags;
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return UsageError(parsed);
  std::printf("%-18s %8s %10s %12s %10s %10s %8s %8s %8s %8s\n", "mode",
              "threads", "requests", "qps", "p50_us", "p99_us", "rejected",
              "shed", "degraded", "maxq");
  std::vector<RowResult> rows;
  for (int threads : flags.threads) {
    const RowResult closed = RunClosedLoop(flags, threads);
    PrintRow(closed);
    rows.push_back(closed);
    const RowResult open = RunOpenLoop(flags, threads);
    PrintRow(open);
    rows.push_back(open);
    if (flags.overload) {
      for (const bool capped : {true, false}) {
        const RowResult row =
            RunOverload(flags, threads, closed.qps, capped);
        PrintRow(row);
        rows.push_back(row);
      }
    }
    if (flags.chaos_enabled()) {
      const RowResult row = RunChaos(flags, threads);
      PrintRow(row);
      rows.push_back(row);
    }
  }
  WriteTable(flags, rows);
  return 0;
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
