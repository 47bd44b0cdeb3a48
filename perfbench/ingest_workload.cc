// ingest-train: TSV -> 16 shards -> out-of-core MF training, per op.

#include <bit>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "data/tsv_loader.h"
#include "recsys/matrix_factorization.h"
#include "recsys/trainer.h"
#include "scale/block_trainer.h"
#include "scale/ingest.h"
#include "scale/sharded_dataset.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGlobalMean = 3.0;

struct Paths {
  std::string dir;
  std::string ratings;
  std::string trust;
  std::string shards;
};

/// Writes the ratings/trust TSV pair: `ratings_per_user` rows per user
/// over users/4 items, and users/2 trust links, all from `seed`.
void WriteTsv(const IngestShape& shape, uint64_t seed, const Paths& paths) {
  const int64_t num_items = std::max<int64_t>(shape.users / 4, 16);
  msopds::Rng rng(seed);
  std::string buffer;
  const auto flush = [&buffer](std::ofstream& out, bool force) {
    if (force || buffer.size() > (1 << 20)) {
      out << buffer;
      buffer.clear();
    }
  };
  {
    std::ofstream out(paths.ratings, std::ios::trunc);
    for (int64_t u = 0; u < shape.users; ++u) {
      for (int64_t k = 0; k < shape.ratings_per_user; ++k) {
        const int64_t item =
            (u * 131 + k * 7919 + static_cast<int64_t>(rng.Next() % 97)) %
            num_items;
        const int64_t value = 1 + static_cast<int64_t>(rng.Next() % 5);
        buffer += msopds::StrFormat("%lld\t%lld\t%lld\n",
                                    static_cast<long long>(u + 1),
                                    static_cast<long long>(item + 1),
                                    static_cast<long long>(value));
        flush(out, false);
      }
    }
    flush(out, true);
  }
  std::ofstream out(paths.trust, std::ios::trunc);
  for (int64_t e = 0; e < shape.users / 2; ++e) {
    const int64_t a = rng.UniformInt(shape.users);
    const int64_t b = rng.UniformInt(shape.users);
    buffer += msopds::StrFormat("%lld\t%lld\n", static_cast<long long>(a + 1),
                                static_cast<long long>(b + 1));
    flush(out, false);
  }
  flush(out, true);
}

msopds::MatrixFactorization FreshModel(const IngestShape& shape,
                                       uint64_t seed, int64_t num_users,
                                       int64_t num_items) {
  msopds::Rng rng(seed);
  msopds::MfConfig config;
  config.latent_dim = shape.dim;
  return msopds::MatrixFactorization(num_users, num_items, config,
                                     kGlobalMean, &rng);
}

msopds::TrainOptions Training(const IngestShape& shape) {
  msopds::TrainOptions options;
  options.epochs = shape.epochs;
  return options;
}

/// One op's observable outputs, compared across ops and with the
/// in-memory reference.
struct IngestTrainResult {
  bool ok = false;
  std::string error;
  msopds::scale::IngestStats ingest;
  msopds::scale::OutOfCoreResult train;
  double ingest_rss_mb = 0.0;
  double train_rss_mb = 0.0;
};

IngestTrainResult IngestAndTrain(const IngestShape& shape, uint64_t seed,
                                 const Paths& paths, Tracer* tracer,
                                 int64_t op) {
  IngestTrainResult result;
  const Tracer::Scope op_span = tracer->Span("op", op);
  msopds::scale::IngestOptions ingest_options;
  ingest_options.name = "perfbench-ingest";
  ingest_options.num_shards = shape.shards;
  // MF never reads the item co-rating graph; skipping it keeps ingest
  // bounded by the largest shard.
  ingest_options.build_item_graph = false;
  if (tracer->enabled()) ResetPeakRss();
  {
    const Tracer::Scope span = tracer->Span("scale.ingest", op);
    auto stats = msopds::scale::IngestTsvToShards(paths.ratings, paths.trust,
                                                  paths.shards, ingest_options);
    if (!stats.ok()) {
      result.error = "ingest: " + stats.status().ToString();
      return result;
    }
    result.ingest = std::move(stats).value();
  }
  if (tracer->enabled()) {
    result.ingest_rss_mb = PeakRssMb();
    ResetPeakRss();
  }
  const Tracer::Scope span = tracer->Span("scale.train", op);
  msopds::MatrixFactorization model = FreshModel(
      shape, seed, result.ingest.num_users, result.ingest.num_items);
  auto trained = msopds::scale::TrainMfOutOfCore(
      &model, result.ingest.shard_paths, Training(shape));
  if (!trained.ok()) {
    result.error = "train: " + trained.status().ToString();
    return result;
  }
  result.train = std::move(trained).value();
  if (tracer->enabled()) result.train_rss_mb = PeakRssMb();
  if (!result.train.healthy) {
    result.error = "train unhealthy: " + result.train.failure;
    return result;
  }
  result.ok = true;
  return result;
}

/// Empty when `got` repeats `want`: the same ingest counts and a
/// bit-equal final loss.
std::string CompareOps(const IngestTrainResult& want,
                       const IngestTrainResult& got) {
  if (!got.ok) return got.error;
  const msopds::scale::IngestStats& a = want.ingest;
  const msopds::scale::IngestStats& b = got.ingest;
  if (a.num_users != b.num_users || a.num_items != b.num_items ||
      a.num_ratings != b.num_ratings || a.rating_rows != b.rating_rows ||
      a.trust_rows != b.trust_rows || a.bad_rows != b.bad_rows ||
      a.social_edges != b.social_edges ||
      a.shard_paths.size() != b.shard_paths.size()) {
    return "ingest counts differ from the set-up op's";
  }
  if (std::bit_cast<uint64_t>(want.train.final_loss) !=
      std::bit_cast<uint64_t>(got.train.final_loss)) {
    return msopds::StrFormat("final loss %.17g != set-up op's %.17g",
                             got.train.final_loss, want.train.final_loss);
  }
  return "";
}

}  // namespace

Outcome RunIngestWorkload(const IngestShape& shape, const RunOptions& options) {
  msopds::ThreadPool::Global().SetNumThreads(1);
  Outcome outcome;
  Tracer untraced(false);
  Paths paths;
  paths.dir = options.out_dir + "/ingest-work-" + std::to_string(::getpid());
  paths.ratings = paths.dir + "/ratings.tsv";
  paths.trust = paths.dir + "/trust.tsv";
  paths.shards = paths.dir + "/shards";
  std::filesystem::remove_all(paths.dir);
  std::filesystem::create_directories(paths.dir);
  // One op, timed into `op_ms`. The previous op's shards are removed
  // first, outside the op.
  const auto run_op = [&](Tracer* tracer, int64_t op,
                          std::vector<double>* op_ms) {
    std::filesystem::remove_all(paths.shards);
    const Clock::time_point start = Clock::now();
    IngestTrainResult result =
        IngestAndTrain(shape, options.seed, paths, tracer, op);
    op_ms->push_back(MsBetween(start, Clock::now()));
    return result;
  };

  // Set-up, once: write the TSV pair, then one untimed op whose result
  // every later op must repeat. Unlike the other workloads this set-up
  // is not repeated: it holds a full op already, and two more would add
  // about 11 s to every run.
  std::vector<double> setup_op_ms;
  const Clock::time_point setup_start = Clock::now();
  WriteTsv(shape, options.seed, paths);
  const IngestTrainResult first = run_op(&untraced, -1, &setup_op_ms);
  outcome.setup_s.push_back(MsBetween(setup_start, Clock::now()) * 1e-3);
  if (!first.ok) {
    outcome.attempted = 1;
    outcome.Fail("first op: " + first.error);
    std::filesystem::remove_all(paths.dir);
    return outcome;
  }

  // Timed phase.
  std::vector<IngestTrainResult> results;
  const Clock::time_point timed_start = Clock::now();
  do {
    results.push_back(run_op(&untraced, -1, &outcome.op_ms));
  } while (MsBetween(timed_start, Clock::now()) < options.seconds * 1e3);
  outcome.timed_s = MsBetween(timed_start, Clock::now()) * 1e-3;
  outcome.peak_rss_mb = PeakRssMb();

  if (options.trace) {
    Tracer tracer(true);
    std::vector<double> traced_ms;
    std::vector<IngestTrainResult> traced;
    for (size_t i = 0; i < outcome.op_ms.size(); ++i) {
      traced.push_back(run_op(&tracer, static_cast<int64_t>(i), &traced_ms));
    }
    // The in-memory reference: LoadTsv, then TrainModel over the
    // canonical user-major ratings, which the out-of-core trainer must
    // reproduce bit for bit.
    ++outcome.attempted;
    std::string error;
    {
      const Tracer::Scope ref = tracer.Span("reference", -1);
      msopds::StatusOr<msopds::Dataset> loaded(msopds::Status::Internal(""));
      {
        const Tracer::Scope span = tracer.Span("data.load_tsv", -1);
        msopds::TsvOptions tsv;
        tsv.name = "perfbench-ingest";
        loaded = msopds::LoadTsv(paths.ratings, paths.trust, tsv);
      }
      if (!loaded.ok()) {
        error = "LoadTsv: " + loaded.status().ToString();
      } else {
        const msopds::Dataset& dataset = loaded.value();
        const Tracer::Scope span = tracer.Span("recsys.train_mf", -1);
        msopds::MatrixFactorization model = FreshModel(
            shape, options.seed, dataset.num_users, dataset.num_items);
        const msopds::TrainResult trained = msopds::TrainModel(
            &model, msopds::scale::UserMajorRatings(dataset), Training(shape));
        if (dataset.num_users != first.ingest.num_users ||
            dataset.num_items != first.ingest.num_items ||
            static_cast<int64_t>(dataset.ratings.size()) !=
                first.ingest.num_ratings) {
          error = "LoadTsv counts differ from IngestTsvToShards";
        } else if (std::bit_cast<uint64_t>(trained.final_loss) !=
                   std::bit_cast<uint64_t>(first.train.final_loss)) {
          error = msopds::StrFormat(
              "TrainModel loss %.17g != out-of-core loss %.17g",
              trained.final_loss, first.train.final_loss);
        }
      }
    }
    if (!error.empty()) outcome.Fail("in-memory reference: " + error);
    for (const IngestTrainResult& result : traced) {
      ++outcome.attempted;
      const std::string op_error = CompareOps(first, result);
      if (!op_error.empty()) outcome.Fail(op_error);
    }

    const std::vector<SpanRecord> spans = tracer.Spans();
    Values& v = outcome.per_layer;
    v["scale.ingest_ms"] = MedianMs(spans, "scale.ingest");
    v["scale.train_ms"] = MedianMs(spans, "scale.train");
    double ingest_rss = 0.0, train_rss = 0.0;
    for (const IngestTrainResult& result : traced) {
      ingest_rss = std::max(ingest_rss, result.ingest_rss_mb);
      train_rss = std::max(train_rss, result.train_rss_mb);
    }
    v["scale.ingest_rss_mb"] = ingest_rss;
    v["scale.train_rss_mb"] = train_rss;
    v["scale.shards_visited"] = static_cast<double>(first.train.shards_visited);
    v["scale.peak_shard_mb"] =
        static_cast<double>(first.train.peak_shard_bytes) / kMiB;
    v["scale.ratings"] = static_cast<double>(first.ingest.num_ratings);
    v["scale.bad_rows"] = static_cast<double>(first.ingest.bad_rows);
    v["data.load_tsv_ms"] = MedianMs(spans, "data.load_tsv");
    v["recsys.train_mf_ms"] =
        MedianMs(spans, "recsys.train_mf");
    FinishTrace(tracer, traced_ms, options, &outcome);
  }

  // Checks, outside the timed region: every other op repeats the first.
  for (const IngestTrainResult& result : results) {
    ++outcome.attempted;
    const std::string error = CompareOps(first, result);
    if (!error.empty()) outcome.Fail(error);
  }
  std::filesystem::remove_all(paths.dir);
  return outcome;
}

}  // namespace perfbench
