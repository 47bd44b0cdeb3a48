// Quantized-serving A/B bench (DESIGN.md §15): publishes one synthetic
// MF snapshot at fp64 and int8 and measures, per precision,
//
//   * snapshot payload bytes and factor bytes per user row (the memory
//     the quantized formats shrink),
//   * the serve-dot hot path in isolation: one user row scored against
//     every item row through ModelSnapshot::ScoreItems, one top-K tile
//     at a time, single thread,
//   * batched TopKForUsers QPS at each --threads entry,
//   * ranking fidelity vs the fp64 reference (mean top-k overlap and
//     top-1 agreement over a user sample — the bench-side echo of the
//     ctest -L quant ranking-parity bounds).
//
// Cells run --reps times; the committed numbers use the min with median
// and spread recorded per cell (bench_util.h RepStats), matching the
// simd_bench reporter. tools/bench_snapshot.sh (which also writes
// BENCH_simd.json) writes the committed BENCH_quant.json at the repo
// root with --reps=3 --dot_ms=50.
//
// Flags (a malformed or out-of-range value exits 2, naming the flag):
//   --users=N --items=N --dim=D   synthetic snapshot size, each >= 1
//                                 (default 2000 x 4000 x 64)
//   --k=N                         list length, >= 1 (default 10)
//   --threads=a,b                 kernel thread counts, each in [1, 256]
//                                 (default 1,4)
//   --reps=N                      repetitions per cell, >= 1 (default 3)
//   --dot_ms=F                    min milliseconds per dot repetition,
//                                 >= 0 (default 50)
//   --sample_users=N              users scored per TopK/fidelity cell,
//                                 >= 1 (default 256)
//   --seed=N                      RNG seed (default 7)
//   --json_out=PATH               output table (default BENCH_quant.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "recsys/matrix_factorization.h"
#include "serve/model_snapshot.h"
#include "serve/quantize.h"
#include "serve/topk.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace msopds {
namespace {

struct QuantBenchFlags {
  int64_t users = 2000;
  int64_t items = 4000;
  int64_t dim = 64;
  int k = 10;
  std::vector<int> threads = {1, 4};
  int reps = 3;
  double dot_ms = 50.0;
  int64_t sample_users = 256;
  uint64_t seed = 7;
  std::string json_out = "BENCH_quant.json";

  Status Parse(int argc, char** argv) {
    FlagSet flags(argv[0]);
    flags.Int("--users", &users, 1);
    flags.Int("--items", &items, 1);
    flags.Int("--dim", &dim, 1);
    flags.Int("--k", &k, 1);
    flags.IntList("--threads", &threads, 1, ThreadPool::kMaxThreads);
    flags.Int("--reps", &reps, 1);
    flags.Double("--dot_ms", &dot_ms, 0.0);
    flags.Int("--sample_users", &sample_users, 1);
    flags.Int("--seed", &seed, 0);
    flags.String("--json_out", &json_out);
    return flags.Parse(argc, argv);
  }
};

// Untrained (randomly initialized) MF snapshot — scoring cost depends
// only on the shapes, and random factors exercise the quantizer's full
// code range.
std::shared_ptr<const serve::ModelSnapshot> MakeFp64Snapshot(
    const QuantBenchFlags& flags) {
  Rng rng(flags.seed);
  Dataset dataset;
  dataset.name = "quant_bench";
  dataset.num_users = flags.users;
  dataset.num_items = flags.items;
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
  options.version = 1;
  options.source = "mf-quant-bench";
  return serve::ModelSnapshot::FromModel(&model, dataset, options);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ns per full-catalog user scoring pass, single thread, through the
// snapshot's width-matched kernel: ScoreItems over the catalogue one
// top-K tile (serve::kTopKItemTile items) at a time, as TopKForUsers
// scores it. Each repetition runs at least dot_ms of wall time.
RepStats TimeServeDot(const serve::ModelSnapshot& snapshot,
                      const QuantBenchFlags& flags) {
  const int64_t items = snapshot.num_items();
  std::vector<double> samples;
  std::vector<double> scores(static_cast<size_t>(serve::kTopKItemTile));
  double sink = 0.0;
  for (int rep = 0; rep < flags.reps; ++rep) {
    const int64_t user = rep % snapshot.num_users();
    const serve::ModelSnapshot::UserRef row = snapshot.UserRefFor(user);
    int64_t passes = 0;
    const auto start = std::chrono::steady_clock::now();
    do {
      for (int64_t tile = 0; tile < items; tile += serve::kTopKItemTile) {
        const int64_t end = std::min(tile + serve::kTopKItemTile, items);
        snapshot.ScoreItems(row, user, tile, end, scores.data());
        sink += scores[0];
      }
      ++passes;
    } while (SecondsSince(start) * 1e3 < flags.dot_ms);
    const double elapsed = SecondsSince(start);
    samples.push_back(elapsed * 1e9 / static_cast<double>(passes));
  }
  // Defeat dead-code elimination of the scoring loop.
  if (sink == 0.12345) std::fprintf(stderr, "sink %f\n", sink);
  return RepStats::Of(std::move(samples));
}

// Seconds per TopKForUsers pass over the user sample at `threads`.
RepStats TimeTopK(const serve::ModelSnapshot& snapshot,
                  const std::vector<int64_t>& users, int threads,
                  const QuantBenchFlags& flags) {
  ThreadPool::Global().SetNumThreads(threads);
  serve::TopKOptions options;
  options.k = flags.k;
  std::vector<double> samples;
  for (int rep = 0; rep < flags.reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const serve::TopKResult result =
        serve::TopKForUsers(snapshot, users, options);
    const double elapsed = SecondsSince(start);
    if (result.counts.empty()) std::abort();
    samples.push_back(elapsed * 1e9);  // RepStats fields are ns
  }
  return RepStats::Of(std::move(samples));
}

struct Fidelity {
  double mean_overlap = 1.0;  // |top-k ∩ reference top-k| / k
  double top1_agreement = 1.0;
};

Fidelity MeasureFidelity(const serve::TopKResult& reference,
                         const serve::TopKResult& quantized,
                         int64_t num_users, int k) {
  Fidelity fidelity;
  double overlap_sum = 0.0;
  int64_t top1 = 0;
  for (int64_t u = 0; u < num_users; ++u) {
    const int64_t* ref = reference.ItemsForUser(u);
    const int64_t* got = quantized.ItemsForUser(u);
    int64_t shared = 0;
    for (int64_t a = 0; a < k; ++a) {
      for (int64_t b = 0; b < k; ++b) {
        if (ref[a] >= 0 && ref[a] == got[b]) {
          ++shared;
          break;
        }
      }
    }
    overlap_sum += static_cast<double>(shared) / static_cast<double>(k);
    if (ref[0] == got[0]) ++top1;
  }
  if (num_users > 0) {
    fidelity.mean_overlap = overlap_sum / static_cast<double>(num_users);
    fidelity.top1_agreement =
        static_cast<double>(top1) / static_cast<double>(num_users);
  }
  return fidelity;
}

struct PrecisionRow {
  serve::SnapshotPrecision precision = serve::SnapshotPrecision::kFp64;
  int64_t payload_bytes = 0;
  int64_t factor_bytes = 0;
  double factor_bytes_per_user = 0.0;
  double bytes_reduction = 1.0;  // vs fp64
  RepStats dot;
  double dot_speedup = 1.0;  // vs fp64, min-over-reps basis
  Fidelity fidelity;
  std::vector<std::pair<int, RepStats>> topk;  // (threads, pass time)
};

int Main(int argc, char** argv) {
  QuantBenchFlags flags;
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return UsageError(parsed);
  const auto fp64 = MakeFp64Snapshot(flags);

  const int64_t sample =
      std::min<int64_t>(flags.sample_users, flags.users);
  std::vector<int64_t> users(static_cast<size_t>(sample));
  std::iota(users.begin(), users.end(), 0);
  ThreadPool::Global().SetNumThreads(1);
  serve::TopKOptions topk_options;
  topk_options.k = flags.k;
  const serve::TopKResult reference =
      serve::TopKForUsers(*fp64, users, topk_options);

  std::printf("%-6s %14s %12s %14s %12s %10s %8s\n", "prec", "factor_bytes",
              "B/user", "dot_ns/pass", "speedup", "overlap", "top1");
  std::vector<PrecisionRow> rows;
  for (const serve::SnapshotPrecision precision :
       {serve::SnapshotPrecision::kFp64, serve::SnapshotPrecision::kInt8}) {
    const std::shared_ptr<const serve::ModelSnapshot> snapshot =
        precision == serve::SnapshotPrecision::kFp64
            ? fp64
            : serve::QuantizeSnapshot(*fp64, precision);
    PrecisionRow row;
    row.precision = precision;
    row.payload_bytes = snapshot->PayloadBytes();
    row.factor_bytes = snapshot->FactorPayloadBytes();
    row.factor_bytes_per_user =
        static_cast<double>(row.factor_bytes) /
        static_cast<double>(flags.users + flags.items);
    row.dot = TimeServeDot(*snapshot, flags);
    if (precision == serve::SnapshotPrecision::kFp64) {
      row.fidelity = Fidelity{};
    } else {
      ThreadPool::Global().SetNumThreads(1);
      const serve::TopKResult quantized =
          serve::TopKForUsers(*snapshot, users, topk_options);
      row.fidelity = MeasureFidelity(reference, quantized, sample, flags.k);
    }
    for (const int threads : flags.threads) {
      row.topk.emplace_back(threads, TimeTopK(*snapshot, users, threads,
                                              flags));
    }
    rows.push_back(std::move(row));
  }
  const PrecisionRow& base = rows.front();
  for (PrecisionRow& row : rows) {
    row.bytes_reduction = row.factor_bytes > 0
                              ? static_cast<double>(base.factor_bytes) /
                                    static_cast<double>(row.factor_bytes)
                              : 0.0;
    row.dot_speedup = row.dot.min > 0.0 ? base.dot.min / row.dot.min : 0.0;
    std::printf("%-6s %14lld %12.1f %14.0f %12.2f %10.3f %8.3f\n",
                serve::SnapshotPrecisionName(row.precision),
                static_cast<long long>(row.factor_bytes),
                row.factor_bytes_per_user, row.dot.min, row.dot_speedup,
                row.fidelity.mean_overlap, row.fidelity.top1_agreement);
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("users").Int(flags.users);
  json.Key("items").Int(flags.items);
  json.Key("dim").Int(flags.dim);
  json.Key("k").Int(flags.k);
  json.Key("reps").Int(flags.reps);
  json.Key("sample_users").Int(sample);
  WriteMachineFields(&json);
  WriteStaticChecksFields(&json, StaticCheckStats::Sample());
  json.Key("cases").BeginArray();
  for (const PrecisionRow& row : rows) {
    json.BeginObject();
    json.Key("precision").String(serve::SnapshotPrecisionName(row.precision));
    json.Key("payload_bytes").Int(row.payload_bytes);
    json.Key("factor_bytes").Int(row.factor_bytes);
    json.Key("factor_bytes_per_user").Double(row.factor_bytes_per_user);
    json.Key("bytes_reduction_vs_fp64").Double(row.bytes_reduction);
    WriteRepStatsFields(&json, "dot_pass", row.dot);
    json.Key("dot_speedup_vs_fp64").Double(row.dot_speedup);
    json.Key("mean_topk_overlap_vs_fp64").Double(row.fidelity.mean_overlap);
    json.Key("top1_agreement_vs_fp64").Double(row.fidelity.top1_agreement);
    json.Key("topk").BeginArray();
    for (const auto& [threads, stats] : row.topk) {
      json.BeginObject();
      json.Key("threads").Int(threads);
      WriteRepStatsFields(&json, "pass", stats);
      json.Key("qps").Double(stats.min > 0.0
                                 ? static_cast<double>(sample) * 1e9 /
                                       stats.min
                                 : 0.0);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  // Summary: each quantized precision's factor-byte reduction and
  // single-thread serve-dot speedup vs the full-precision baseline.
  json.Key("summary").BeginObject();
  for (const PrecisionRow& row : rows) {
    if (row.precision == serve::SnapshotPrecision::kFp64) continue;
    const std::string name = serve::SnapshotPrecisionName(row.precision);
    json.Key(name + "_bytes_reduction").Double(row.bytes_reduction);
    json.Key(name + "_dot_speedup").Double(row.dot_speedup);
  }
  json.EndObject();
  json.EndObject();
  if (WriteJsonFile(flags.json_out, json.TakeString())) {
    std::fprintf(stderr, "[quant] wrote %zu precision row(s) to %s\n",
                 rows.size(), flags.json_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
