#ifndef MSOPDS_BENCH_AB_BENCH_H_
#define MSOPDS_BENCH_AB_BENCH_H_

// A/B comparison tables for the google-benchmark binaries (simd_bench,
// micro_autodiff, micro_recsys).
//
// A comparison case ends its benchmark name with one of kAbArguments:
// "threads" (kernel pool size), "simd" (0 forces the scalar backend, 1
// runs the probed one) or "arena" (tensor arena off or on). Two rows
// whose names differ only in the value of that last argument form a
// pair, with the argument's baseline value on one side. Replace
// BENCHMARK_MAIN() with MSOPDS_AB_BENCH_MAIN(path): after the console
// output it writes one JSON table to `path`. The header records the
// machine (WriteMachineFields) and the kernel pool size the process
// started with, which every case without a "threads" argument runs at.
// Each pair's row carries the case name, the argument ("kind"), the
// baseline and variant values, both sides' wall times over every
// repetition (RepStats), the speedup of the two minimums (baseline /
// variant) and each side's counters. Rows of no pair print to the
// console only. Both sides of a pair compute bit-identical results, so
// the table measures speed, never accuracy.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace msopds {
namespace bench {

/// The arguments that make a case one side of a pair, each with the
/// value of its baseline side.
struct AbArgument {
  const char* name;
  int64_t baseline;
};
inline constexpr AbArgument kAbArguments[] = {
    {"threads", 1}, {"simd", 0}, {"arena", 0}};

/// Kernel threads of the parallel side of a threads pair.
inline constexpr int kPairThreads = 4;

/// Registers (size, 1) and (size, kPairThreads) for every size, so each
/// size runs once serial and once parallel.
inline void ThreadPairs(benchmark::internal::Benchmark* b,
                        std::initializer_list<int64_t> sizes) {
  b->ArgNames({"n", "threads"});
  for (const int64_t n : sizes) {
    b->Args({n, 1});
    b->Args({n, kPairThreads});
  }
}

/// Sets the kernel pool to a threads pair's second argument for one case
/// body and restores the previous size after it, so the cases that run
/// later keep the size the table's header records.
class ScopedCaseThreads {
 public:
  explicit ScopedCaseThreads(const benchmark::State& state)
      : previous_(ThreadPool::Global().num_threads()) {
    ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(1)));
  }
  ~ScopedCaseThreads() { ThreadPool::Global().SetNumThreads(previous_); }
  ScopedCaseThreads(const ScopedCaseThreads&) = delete;
  ScopedCaseThreads& operator=(const ScopedCaseThreads&) = delete;

 private:
  int previous_;
};

/// Console reporter that also keeps every repetition of each pair side,
/// and writes the pairs as one JSON table.
class PairReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      const size_t slash = name.rfind('/');
      if (slash == std::string::npos) continue;
      const size_t colon = name.find(':', slash);
      int64_t value = 0;
      if (colon == std::string::npos ||
          !ParseInt64(name.substr(colon + 1), &value)) {
        continue;
      }
      const std::string kind = name.substr(slash + 1, colon - slash - 1);
      if (Baseline(kind) == nullptr) continue;
      Side& side = sides_[{name.substr(0, slash), kind}][value];
      side.times_ns.push_back(run.GetAdjustedRealTime());
      // Rates restate the row's wall time; the case's own counters
      // describe its work and read the same in every repetition.
      for (const auto& [counter_name, counter] : run.counters) {
        if ((counter.flags & benchmark::Counter::kIsRate) == 0) {
          side.counters[counter_name] = counter.value;
        }
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  /// Writes the table to `path` and returns false when it cannot.
  bool WriteTable(const std::string& path, int threads) const {
    JsonWriter json;
    json.BeginObject();
    WriteMachineFields(&json);
    json.Key("threads").Int(threads);
    json.Key("cases").BeginArray();
    int pairs = 0;
    for (const auto& [key, by_value] : sides_) {
      const auto& [name, kind] = key;
      const auto baseline = by_value.find(*Baseline(kind));
      if (baseline == by_value.end()) continue;
      const RepStats base = RepStats::Of(baseline->second.times_ns);
      for (const auto& [value, side] : by_value) {
        if (value == baseline->first) continue;
        const RepStats variant = RepStats::Of(side.times_ns);
        json.BeginObject();
        json.Key("name").String(name);
        json.Key("kind").String(kind);
        json.Key("baseline").Int(baseline->first);
        json.Key("variant").Int(value);
        WriteRepStatsFields(&json, "t_baseline", base);
        WriteRepStatsFields(&json, "t_variant", variant);
        json.Key("speedup").Double(
            variant.min > 0.0 ? base.min / variant.min : 0.0);
        WriteCounters(&json, "baseline_counters", baseline->second.counters);
        WriteCounters(&json, "variant_counters", side.counters);
        json.EndObject();
        ++pairs;
      }
    }
    json.EndArray();
    json.EndObject();
    if (!WriteJsonFile(path, json.TakeString())) return false;
    std::fprintf(stderr, "[ab] wrote %d pair(s) to %s\n", pairs,
                 path.c_str());
    return true;
  }

 private:
  struct Side {
    std::vector<double> times_ns;
    std::map<std::string, double> counters;
  };

  /// The baseline value of argument `kind`, or null when `kind` is not
  /// one of kAbArguments.
  static const int64_t* Baseline(const std::string& kind) {
    for (const AbArgument& argument : kAbArguments) {
      if (kind == argument.name) return &argument.baseline;
    }
    return nullptr;
  }

  static void WriteCounters(JsonWriter* json, const std::string& key,
                            const std::map<std::string, double>& counters) {
    if (counters.empty()) return;
    json->Key(key).BeginObject();
    for (const auto& [name, value] : counters) json->Key(name).Double(value);
    json->EndObject();
  }

  // (case name without its last argument, argument) -> value -> side.
  std::map<std::pair<std::string, std::string>, std::map<int64_t, Side>>
      sides_;
};

}  // namespace bench
}  // namespace msopds

/// Drop-in replacement for BENCHMARK_MAIN() that also writes the A/B
/// table to `json_path`; exits 1 when it cannot.
#define MSOPDS_AB_BENCH_MAIN(json_path)                                     \
  int main(int argc, char** argv) {                                         \
    ::benchmark::Initialize(&argc, argv);                                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;     \
    const int threads = ::msopds::ThreadPool::Global().num_threads();       \
    ::msopds::bench::PairReporter reporter;                                 \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);                         \
    const bool written = reporter.WriteTable(json_path, threads);           \
    ::benchmark::Shutdown();                                                \
    return written ? 0 : 1;                                                 \
  }

#endif  // MSOPDS_BENCH_AB_BENCH_H_
