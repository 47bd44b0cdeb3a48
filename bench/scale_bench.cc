// Million-user substrate bench (DESIGN.md §17): measures the users ×
// wall-time × peak-RSS trajectory of the out-of-core data path, and
// commits it as BENCH_scale.json.
//
// For each synthetic user count the bench writes a ratings/trust TSV
// pair, then ingests it and trains on it at 1, 4 and 16 shards. Training
// streams one shard at a time, so its RSS is bounded by the largest
// shard plus the model parameters; the 1-shard arm is the in-memory
// case (RSS grows with the dataset).
//
// Every ingest and train phase runs in a fresh subprocess of this binary
// (--phase=...), so each row's peak RSS (VmHWM) is that phase's own
// high-water mark, not an earlier phase's. The training arms are
// bit-identical to each other by the TrainMfOutOfCore contract; the
// JSON records final_loss so a drift would be visible in review.
//
// Flags (master mode; a malformed or out-of-range value exits 2, naming
// the flag):
//   --users=a,b,c        user counts, each >= 1 (default
//                        65536,262144,1048576)
//   --ratings_per_user=N rating rows per user, >= 1 (default 6)
//   --epochs=N           training epochs per arm, >= 1 (default 2)
//   --dim=D              MF latent dim, >= 1 (default 8)
//   --seed=N             RNG seed (default 7)
//   --work_dir=PATH      scratch root (default <tmp>/msopds_scale_bench)
//   --keep_work_dir      do not delete the scratch tree at the end
//   --json_out=PATH      output table (default BENCH_scale.json)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "recsys/matrix_factorization.h"
#include "recsys/trainer.h"
#include "scale/block_trainer.h"
#include "scale/ingest.h"
#include "scale/sharded_dataset.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace msopds {
namespace {

struct ScaleBenchFlags {
  std::vector<int64_t> users = {65536, 262144, 1048576};
  int64_t ratings_per_user = 6;
  int epochs = 2;
  int64_t dim = 8;
  uint64_t seed = 7;
  std::string work_dir;
  bool keep_work_dir = false;
  std::string json_out = "BENCH_scale.json";

  // Subprocess-phase plumbing (not for interactive use).
  std::string phase;  // "" = master, "ingest" or "train"
  std::string ratings_path;
  std::string trust_path;
  std::string shard_dir;
  int64_t shards = 1;
  std::string result_out;

  Status Parse(int argc, char** argv) {
    FlagSet flags(argv[0]);
    flags.IntList("--users", &users, 1);
    flags.Int("--ratings_per_user", &ratings_per_user, 1);
    flags.Int("--epochs", &epochs, 1);
    flags.Int("--dim", &dim, 1);
    flags.Int("--seed", &seed, 0);
    flags.String("--work_dir", &work_dir);
    flags.Bool("--keep_work_dir", &keep_work_dir);
    flags.String("--json_out", &json_out);
    flags.Choice("--phase", &phase, {"ingest", "train"});
    flags.String("--ratings", &ratings_path);
    flags.String("--trust", &trust_path);
    flags.String("--shard_dir", &shard_dir);
    flags.Int("--shards", &shards, 1);
    flags.String("--result_out", &result_out);
    return flags.Parse(argc, argv);
  }
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Writes a deterministic ratings/trust TSV pair sized by (users,
/// ratings_per_user). Plain splitmix streams — no GenerateSynthetic, so
/// the generator stays O(rows) with O(1) memory at a million users.
void WriteSyntheticTsv(const ScaleBenchFlags& flags, int64_t num_users,
                       const std::string& ratings_path,
                       const std::string& trust_path) {
  const int64_t num_items = std::max<int64_t>(num_users / 4, 16);
  Rng rng(flags.seed ^ static_cast<uint64_t>(num_users));
  std::string buffer;
  buffer.reserve(1 << 20);
  {
    std::ofstream out(ratings_path, std::ios::trunc);
    for (int64_t u = 0; u < num_users; ++u) {
      for (int64_t k = 0; k < flags.ratings_per_user; ++k) {
        // Distinct items per user: stride through a coprime-ish offset.
        const int64_t item =
            (u * 131 + k * 7919 + static_cast<int64_t>(rng.Next() % 97)) %
            num_items;
        const int64_t value = 1 + static_cast<int64_t>(rng.Next() % 5);
        buffer += std::to_string(u + 1);
        buffer += '\t';
        buffer += std::to_string(item + 1);
        buffer += '\t';
        buffer += std::to_string(value);
        buffer += '\n';
        if (buffer.size() > (1 << 20) - 64) {
          out << buffer;
          buffer.clear();
        }
      }
    }
    out << buffer;
    buffer.clear();
  }
  {
    std::ofstream out(trust_path, std::ios::trunc);
    const int64_t num_links = num_users / 2;
    for (int64_t e = 0; e < num_links; ++e) {
      const int64_t a = static_cast<int64_t>(
          rng.Next() % static_cast<uint64_t>(num_users));
      const int64_t b = static_cast<int64_t>(
          rng.Next() % static_cast<uint64_t>(num_users));
      buffer += std::to_string(a + 1);
      buffer += '\t';
      buffer += std::to_string(b + 1);
      buffer += '\n';
      if (buffer.size() > (1 << 20) - 32) {
        out << buffer;
        buffer.clear();
      }
    }
    out << buffer;
  }
}

void WriteResult(const std::string& path,
                 const std::map<std::string, double>& values) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [key, value] : values) {
    out << key << ' ' << StrFormat("%.9g", value) << '\n';
  }
}

bool ReadResult(const std::string& path,
                std::map<std::string, double>* values) {
  std::ifstream in(path);
  if (!in.is_open()) return false;
  std::string key;
  double value = 0.0;
  while (in >> key >> value) (*values)[key] = value;
  return !values->empty();
}

/// --phase=ingest: stream the TSV pair into a shard set and report wall
/// time, ingest-process peak RSS, and the resulting global counts.
int IngestPhase(const ScaleBenchFlags& flags) {
  std::filesystem::remove_all(flags.shard_dir);
  scale::IngestOptions options;
  options.name = "scale-bench";
  options.num_shards = flags.shards;
  // Strict per-shard memory: the item co-rating graph would cost one
  // O(total ratings) resident pass and MF never reads it.
  options.build_item_graph = false;
  const auto start = std::chrono::steady_clock::now();
  auto stats = scale::IngestTsvToShards(flags.ratings_path, flags.trust_path,
                                        flags.shard_dir, options);
  if (!stats.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  WriteResult(flags.result_out,
              {{"seconds", SecondsSince(start)},
               {"peak_rss_bytes", static_cast<double>(PeakRssBytes())},
               {"num_users", static_cast<double>(stats.value().num_users)},
               {"num_items", static_cast<double>(stats.value().num_items)},
               {"num_ratings", static_cast<double>(stats.value().num_ratings)}});
  return 0;
}

/// --phase=train: full-batch MF streamed over the shard set, reporting
/// wall time, train-process peak RSS, and the working-set bound (largest
/// shard file).
int TrainPhase(const ScaleBenchFlags& flags) {
  auto paths = scale::ListShardPaths(flags.shard_dir);
  if (!paths.ok()) {
    std::fprintf(stderr, "%s\n", paths.status().ToString().c_str());
    return 1;
  }
  auto header = scale::ShardReader::Open(paths.value().front());
  if (!header.ok()) {
    std::fprintf(stderr, "%s\n", header.status().ToString().c_str());
    return 1;
  }
  const int64_t num_users = header.value().num_users();
  const int64_t num_items = header.value().num_items();

  Rng rng(flags.seed);
  MfConfig config;
  config.latent_dim = flags.dim;
  MatrixFactorization model(num_users, num_items, config, 3.0, &rng);
  TrainOptions options;
  options.epochs = flags.epochs;

  const auto start = std::chrono::steady_clock::now();
  auto result = scale::TrainMfOutOfCore(&model, paths.value(), options);
  if (!result.ok()) {
    std::fprintf(stderr, "train failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  WriteResult(
      flags.result_out,
      {{"seconds", SecondsSince(start)},
       {"peak_rss_bytes", static_cast<double>(PeakRssBytes())},
       {"peak_shard_bytes", static_cast<double>(result.value().peak_shard_bytes)},
       {"final_loss", result.value().final_loss},
       {"healthy", result.value().healthy ? 1.0 : 0.0}});
  return 0;
}

struct PhaseOutcome {
  std::map<std::string, double> values;
};

bool RunPhase(const std::string& command, const std::string& result_path,
              PhaseOutcome* outcome) {
  std::remove(result_path.c_str());
  const int status = std::system(command.c_str());  // NOLINT
  if (status != 0) {
    std::fprintf(stderr, "phase failed (%d): %s\n", status, command.c_str());
    return false;
  }
  return ReadResult(result_path, &outcome->values);
}

int MasterMain(const ScaleBenchFlags& flags, const char* argv0) {
  const std::string self = SelfExecutable(argv0);
  const std::string work =
      flags.work_dir.empty()
          ? (std::filesystem::temp_directory_path() / "msopds_scale_bench")
                .string()
          : flags.work_dir;
  std::filesystem::create_directories(work);

  const int64_t shard_counts[] = {1, 4, 16};

  std::vector<ScaleRowStats> rows;
  std::printf("%10s %7s %10s %10s %14s %14s %14s\n", "users", "shards",
              "ingest_s", "train_s", "ingest_rss_mb", "train_rss_mb",
              "shard_mb");
  for (int64_t num_users : flags.users) {
    const std::string user_dir =
        work + StrFormat("/u%lld", static_cast<long long>(num_users));
    std::filesystem::create_directories(user_dir);
    const std::string ratings_path = user_dir + "/ratings.tsv";
    const std::string trust_path = user_dir + "/trust.tsv";
    WriteSyntheticTsv(flags, num_users, ratings_path, trust_path);

    for (const int64_t shards : shard_counts) {
      const std::string shard_dir =
          user_dir + StrFormat("/shards_%lld", static_cast<long long>(shards));
      const std::string result_path =
          user_dir +
          StrFormat("/result_%lld.txt", static_cast<long long>(shards));
      PhaseOutcome ingest;
      const std::string ingest_command = StrFormat(
          "%s --phase=ingest --ratings=%s --trust=%s --shard_dir=%s "
          "--shards=%lld --result_out=%s",
          self.c_str(), ratings_path.c_str(), trust_path.c_str(),
          shard_dir.c_str(), static_cast<long long>(shards),
          result_path.c_str());
      if (!RunPhase(ingest_command, result_path, &ingest)) return 1;

      PhaseOutcome train;
      const std::string command = StrFormat(
          "%s --phase=train --shard_dir=%s --epochs=%d --dim=%lld --seed=%llu "
          "--result_out=%s",
          self.c_str(), shard_dir.c_str(), flags.epochs,
          static_cast<long long>(flags.dim),
          static_cast<unsigned long long>(flags.seed), result_path.c_str());
      if (!RunPhase(command, result_path, &train)) return 1;
      if (train.values.count("healthy") == 0 ||
          train.values.at("healthy") != 1.0) {
        std::fprintf(stderr, "training arm was unhealthy; aborting\n");
        return 1;
      }

      ScaleRowStats row;
      row.num_users = static_cast<int64_t>(ingest.values.at("num_users"));
      row.num_items = static_cast<int64_t>(ingest.values.at("num_items"));
      row.num_ratings = static_cast<int64_t>(ingest.values.at("num_ratings"));
      row.num_shards = shards;
      row.ingest_seconds = ingest.values.at("seconds");
      row.train_seconds = train.values.at("seconds");
      row.ingest_peak_rss_bytes =
          static_cast<int64_t>(ingest.values.at("peak_rss_bytes"));
      row.train_peak_rss_bytes =
          static_cast<int64_t>(train.values.at("peak_rss_bytes"));
      row.peak_shard_bytes =
          static_cast<int64_t>(train.values.at("peak_shard_bytes"));
      row.final_loss = train.values.at("final_loss");
      rows.push_back(row);
      std::printf("%10lld %7lld %10.2f %10.2f %14.1f %14.1f %14.1f\n",
                  static_cast<long long>(row.num_users),
                  static_cast<long long>(row.num_shards), row.ingest_seconds,
                  row.train_seconds,
                  static_cast<double>(row.ingest_peak_rss_bytes) / (1 << 20),
                  static_cast<double>(row.train_peak_rss_bytes) / (1 << 20),
                  static_cast<double>(row.peak_shard_bytes) / (1 << 20));
      std::fflush(stdout);
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("ratings_per_user").Int(flags.ratings_per_user);
  json.Key("epochs").Int(flags.epochs);
  json.Key("dim").Int(flags.dim);
  json.Key("seed").Int(static_cast<int64_t>(flags.seed));
  WriteStaticChecksFields(&json, StaticCheckStats::Sample());
  json.Key("rows").BeginArray();
  for (const ScaleRowStats& row : rows) {
    json.BeginObject();
    WriteScaleFields(&json, row);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!WriteJsonFile(flags.json_out, json.TakeString())) return 1;
  std::printf("wrote %s (%zu rows)\n", flags.json_out.c_str(), rows.size());

  if (!flags.keep_work_dir && flags.work_dir.empty()) {
    std::filesystem::remove_all(work);
  }
  return 0;
}

int Main(int argc, char** argv) {
  ScaleBenchFlags flags;
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return UsageError(parsed);
  if (flags.phase == "ingest") return IngestPhase(flags);
  if (flags.phase == "train") return TrainPhase(flags);
  return MasterMain(flags, argv[0]);
}

}  // namespace
}  // namespace msopds

int main(int argc, char** argv) { return msopds::Main(argc, argv); }
