// serve-topk: closed-loop top-K traffic against a ServingEngine while the
// snapshot is re-exported and hot-swapped on a request-count schedule.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "recsys/matrix_factorization.h"
#include "serve/admission.h"
#include "serve/engine.h"
#include "serve/model_snapshot.h"
#include "serve/topk.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using msopds::MatrixFactorization;
using msopds::serve::ModelSnapshot;
using msopds::serve::ServeResponse;
using msopds::serve::ServingEngine;

constexpr int kTopK = 10;

/// A response kept for the after-run check against TopKForUsers.
struct Sample {
  int64_t user = 0;
  ServeResponse response;
};

/// Everything the clients share: the seen-item dataset, two models whose
/// exports alternate by version parity (so consecutive versions differ
/// and a stale response shows), and the publish schedule.
struct ServeInputs {
  msopds::Dataset dataset;
  std::vector<std::unique_ptr<MatrixFactorization>> models;
};

ServeInputs MakeInputs(const ServeShape& shape, uint64_t seed) {
  ServeInputs inputs;
  msopds::Rng rng(seed);
  inputs.dataset.name = "perfbench-serve";
  inputs.dataset.num_users = shape.users;
  inputs.dataset.num_items = shape.items;
  inputs.dataset.ratings.reserve(
      static_cast<size_t>(shape.users * shape.seen_per_user));
  std::vector<int64_t> row;
  for (int64_t u = 0; u < shape.users; ++u) {
    row.clear();
    for (int64_t r = 0; r < shape.seen_per_user; ++r) {
      row.push_back(rng.UniformInt(shape.items));
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    for (int64_t item : row) inputs.dataset.ratings.push_back({u, item, 5.0});
  }
  // Random initialisation is enough: scoring cost depends only on shapes.
  msopds::MfConfig config;
  config.latent_dim = shape.dim;
  for (int m = 0; m < 2; ++m) {
    msopds::Rng model_rng = rng.Split();
    inputs.models.push_back(std::make_unique<MatrixFactorization>(
        shape.users, shape.items, config, 3.5, &model_rng));
  }
  return inputs;
}

std::shared_ptr<const ModelSnapshot> Export(ServeInputs* inputs,
                                            uint64_t version) {
  msopds::serve::SnapshotOptions options;
  options.version = version;
  options.source = "perfbench-mf";
  return ModelSnapshot::FromModel(inputs->models[version % 2].get(),
                                  inputs->dataset, options);
}

/// One engine with its publish schedule: a fresh export plus Publish
/// after every `publish_every` completed requests, issued by the client
/// that completed the request.
class Server {
 public:
  Server(ServeInputs* inputs, const ServeShape& shape, uint64_t first_version,
         Tracer* tracer)
      : inputs_(inputs), shape_(shape), tracer_(tracer),
        version_(first_version) {
    PublishNext();
  }

  ServingEngine& engine() { return engine_; }

  void PublishNext() {
    std::lock_guard<std::mutex> lock(publish_mu_);
    ++version_;
    std::shared_ptr<const ModelSnapshot> snapshot;
    {
      const Tracer::Scope span = tracer_->Span("serve.export", -1);
      snapshot = Export(inputs_, version_);
    }
    const Tracer::Scope span = tracer_->Span("serve.publish", -1);
    engine_.Publish(std::move(snapshot));
  }

  uint64_t version() {
    std::lock_guard<std::mutex> lock(publish_mu_);
    return version_;
  }

  /// Request counter shared by the clients; returns the new count.
  int64_t Completed() { return completed_.fetch_add(1) + 1; }

  const ServeShape& shape() const { return shape_; }
  Tracer* tracer() { return tracer_; }

 private:
  ServeInputs* inputs_;
  const ServeShape shape_;
  Tracer* tracer_;
  std::mutex publish_mu_;
  uint64_t version_;  // guarded by publish_mu_
  std::atomic<int64_t> completed_{0};
  ServingEngine engine_;  // last: stopped before the rest is destroyed
};

/// What the clients of one phase observed.
struct ClientResults {
  std::vector<double> op_ms;
  std::vector<Sample> samples;
  int64_t attempted = 0;
  int64_t not_ok = 0;
  int64_t retries = 0;
  double seconds = 0.0;
};

/// Runs the closed loop: each client sends its next request only after
/// the previous reply. Stops after `requests_per_client` requests each,
/// or, when that is 0, once `seconds` have passed.
ClientResults RunClients(Server* server, uint64_t seed, double seconds,
                         int64_t requests_per_client) {
  const ServeShape& shape = server->shape();
  std::atomic<bool> stop{false};
  std::vector<ClientResults> per_client(static_cast<size_t>(shape.clients));
  std::vector<std::thread> clients;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < shape.clients; ++c) {
    clients.emplace_back([&, c] {
      ClientResults& mine = per_client[static_cast<size_t>(c)];
      msopds::serve::RetryingClient client(
          &server->engine(), msopds::serve::RetryPolicy{},
          seed * 31 + static_cast<uint64_t>(c));
      msopds::Rng rng(seed * 1009 + static_cast<uint64_t>(c));
      Tracer* tracer = server->tracer();
      for (int64_t i = 0; requests_per_client > 0 ? i < requests_per_client
                                                  : !stop.load();
           ++i) {
        msopds::serve::ServeRequest request;
        request.user = rng.UniformInt(shape.users);
        request.k = kTopK;
        request.exclude_seen = true;
        const int64_t id = static_cast<int64_t>(c) * 1000000000 + i;
        const Clock::time_point sent = Clock::now();
        ServeResponse response;
        {
          const Tracer::Scope op = tracer->Span("op", id);
          const Tracer::Scope call = tracer->Span("serve.request", id);
          response = client.Serve(request);
        }
        mine.op_ms.push_back(MsBetween(sent, Clock::now()));
        ++mine.attempted;
        if (response.status != msopds::serve::ServeStatus::kOk ||
            response.served_degraded) {
          ++mine.not_ok;
        }
        const int64_t n = server->Completed();
        if (n % shape.check_every == 0) {
          mine.samples.push_back({request.user, std::move(response)});
        }
        if (n % shape.publish_every == 0) server->PublishNext();
      }
      mine.retries = client.retries();
    });
  }
  if (requests_per_client == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  for (std::thread& t : clients) t.join();
  ClientResults all;
  all.seconds = MsBetween(start, Clock::now()) * 1e-3;
  for (ClientResults& mine : per_client) {
    all.op_ms.insert(all.op_ms.end(), mine.op_ms.begin(), mine.op_ms.end());
    for (Sample& s : mine.samples) all.samples.push_back(std::move(s));
    all.attempted += mine.attempted;
    all.not_ok += mine.not_ok;
    all.retries += mine.retries;
  }
  return all;
}

/// Compares each sampled response with TopKForUsers on the snapshot of
/// the version it reports; returns the number that differ.
int64_t CountMismatches(ServeInputs* inputs, const std::vector<Sample>& samples,
                        Outcome* outcome) {
  std::shared_ptr<const ModelSnapshot> by_parity[2];
  int64_t mismatches = 0;
  msopds::serve::TopKOptions options;
  options.k = kTopK;
  options.exclude_seen = true;
  for (const Sample& sample : samples) {
    const ServeResponse& got = sample.response;
    if (got.status != msopds::serve::ServeStatus::kOk || got.served_degraded) {
      continue;  // already counted as a failed op
    }
    const uint64_t version = got.snapshot_version;
    std::shared_ptr<const ModelSnapshot>& snapshot = by_parity[version % 2];
    if (snapshot == nullptr) snapshot = Export(inputs, version);
    const msopds::serve::TopKResult want =
        msopds::serve::TopKForUsers(*snapshot, {sample.user}, options);
    const size_t count = static_cast<size_t>(want.counts[0]);
    bool equal = version > 0 && got.items.size() == count &&
                 got.scores.size() == count;
    for (size_t j = 0; equal && j < count; ++j) {
      equal = got.items[j] == want.items[j] && got.scores[j] == want.scores[j];
    }
    if (!equal) {
      ++mismatches;
      outcome->Fail(msopds::StrFormat(
          "user %lld at version %llu differs from TopKForUsers",
          static_cast<long long>(sample.user),
          static_cast<unsigned long long>(version)));
    }
  }
  return mismatches;
}

}  // namespace

Outcome RunServeWorkload(const ServeShape& shape, const RunOptions& options) {
  msopds::ThreadPool::Global().SetNumThreads(shape.kernel_threads);
  Outcome outcome;
  Tracer untraced(false);

  // Set-up, kSetups times (the reported set-up time is their median):
  // inputs, engine, first export + publish, and a warm-up burst that
  // starts the batcher and faults in the snapshot.
  std::unique_ptr<ServeInputs> inputs;
  std::unique_ptr<Server> server;
  for (int rep = 0; rep < kSetups; ++rep) {
    server.reset();
    inputs.reset();
    const Clock::time_point start = Clock::now();
    inputs = std::make_unique<ServeInputs>(MakeInputs(shape, options.seed));
    server = std::make_unique<Server>(inputs.get(), shape, 0, &untraced);
    RunClients(server.get(), options.seed + 1000003, 0.0,
               shape.warmup_requests);
    outcome.setup_s.push_back(MsBetween(start, Clock::now()) * 1e-3);
  }

  // Timed phase.
  ClientResults timed = RunClients(server.get(), options.seed, options.seconds,
                                   /*requests_per_client=*/0);
  outcome.op_ms = timed.op_ms;
  outcome.timed_s = timed.seconds;
  outcome.peak_rss_mb = PeakRssMb();
  const uint64_t last_version = server->version();
  server.reset();

  ClientResults traced;
  msopds::serve::EngineStats traced_stats;
  Tracer tracer(options.trace);
  if (options.trace) {
    // Traced phase on a fresh engine, so its statistics cover only it.
    auto traced_server =
        std::make_unique<Server>(inputs.get(), shape, last_version, &tracer);
    traced = RunClients(traced_server.get(), options.seed, options.seconds, 0);
    traced_stats = traced_server->engine().Stats();
    traced_server.reset();
  }

  // Checks, outside the timed region.
  outcome.attempted = timed.attempted + traced.attempted;
  for (int64_t i = 0; i < timed.not_ok + traced.not_ok; ++i) {
    outcome.Fail("request rejected, shed, cancelled or degraded");
  }
  int64_t mismatches = CountMismatches(inputs.get(), timed.samples, &outcome);
  mismatches += CountMismatches(inputs.get(), traced.samples, &outcome);

  if (options.trace) {
    // The scoring share of a request: TopKForUsers outside the engine on
    // a batch of one user per client, the batch this loop produces.
    std::shared_ptr<const ModelSnapshot> snapshot =
        Export(inputs.get(), last_version);
    std::vector<int64_t> users;
    for (int c = 0; c < shape.clients; ++c) {
      users.push_back(c * 7919 % shape.users);
    }
    msopds::serve::TopKOptions topk;
    topk.k = kTopK;
    std::vector<double> pass_ms;
    for (int rep = 0; rep < 200; ++rep) {
      const Tracer::Scope span = tracer.Span("serve.topk_pass", -1);
      const Clock::time_point start = Clock::now();
      msopds::serve::TopKForUsers(*snapshot, users, topk);
      pass_ms.push_back(MsBetween(start, Clock::now()));
    }
    const std::vector<SpanRecord> spans = tracer.Spans();
    Values& v = outcome.per_layer;
    v["serve.export_ms"] = MedianMs(spans, "serve.export");
    v["serve.publish_ms"] =
        MedianMs(spans, "serve.publish");
    v["serve.engine_p50_us"] = static_cast<double>(traced_stats.p50_us);
    v["serve.engine_p99_us"] = static_cast<double>(traced_stats.p99_us);
    v["serve.mean_batch_size"] = traced_stats.mean_batch_size;
    v["serve.batches"] = static_cast<double>(traced_stats.batches);
    v["serve.max_queue_depth"] =
        static_cast<double>(traced_stats.max_queue_depth);
    v["serve.topk_pass_ms"] = NearestRank(pass_ms, 50.0);
    v["serve.op_p90_ms"] = NearestRank(traced.op_ms, 90.0);
    v["serve.op_p99_ms"] = NearestRank(traced.op_ms, 99.0);
    v["serve.rejected"] = static_cast<double>(traced_stats.rejected);
    v["serve.shed"] = static_cast<double>(traced_stats.shed);
    v["serve.degraded"] = static_cast<double>(traced_stats.degraded);
    v["serve.cancelled"] = static_cast<double>(traced_stats.cancelled);
    v["serve.retries"] = static_cast<double>(traced.retries);
    v["serve.mismatches"] = static_cast<double>(mismatches);
    FinishTrace(tracer, traced.op_ms, options, &outcome);
  }
  return outcome;
}

}  // namespace perfbench
