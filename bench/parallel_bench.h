#ifndef MSOPDS_BENCH_PARALLEL_BENCH_H_
#define MSOPDS_BENCH_PARALLEL_BENCH_H_

// Serial-vs-parallel comparison harness for the micro-benches.
//
// A comparison case is a google-benchmark whose *last* argument is the
// kernel thread count. Register the grid with ParallelArgs(), set the
// pool inside the body with SetThreadsFromState(), and replace
// BENCHMARK_MAIN() with MSOPDS_PARALLEL_BENCH_MAIN(path): after the
// normal console output, rows that differ only in "/threads:N" are
// paired against their "/threads:1" baseline and written to `path` as a
// JSON speedup table (speedup = serial wall time / parallel wall time;
// the kernels are bit-identical at any thread count, so the table
// measures scheduling overhead and scaling, never accuracy).
//
// MSOPDS_BENCH_THREADS overrides the parallel side of the comparison
// (default 4). On a single-core host speedups near (or below) 1.0 are
// expected; the table still records pool overhead.
//
// Memory profile: benches that publish counters prefixed "mem_"
// (allocations per step, arena hit rate — see the BM_Mem* cases) are
// additionally collected into a second JSON table, written by
// the same main to the macro's `memory_json_path`, together with a
// process-level MemStats sample (bench/bench_util.h).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "util/json_writer.h"
#include "util/thread_pool.h"

namespace msopds {
namespace bench {

/// Thread count of the parallel side of each comparison pair.
inline int ComparisonThreads() {
  if (const char* env = std::getenv("MSOPDS_BENCH_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 4;
}

/// Registers (size, 1) and (size, ComparisonThreads()) argument pairs so
/// every size runs once serial and once parallel.
inline void ParallelArgs(benchmark::internal::Benchmark* b,
                         std::initializer_list<int64_t> sizes) {
  b->ArgNames({"n", "threads"});
  for (int64_t n : sizes) {
    b->Args({n, 1});
    b->Args({n, ComparisonThreads()});
  }
}

/// Applies the case's thread-count argument — range(1) of the
/// (size, threads) pairs ParallelArgs() registers — to the global pool.
/// Call once at the top of the benchmark body.
inline void SetThreadsFromState(const benchmark::State& state) {
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(1)));
}

/// Console reporter that additionally captures per-iteration rows so the
/// main can pair "/threads:1" against "/threads:N" after the run.
class SpeedupReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      bool has_memory_counters = false;
      for (const auto& [counter_name, counter] : run.counters) {
        if (counter_name.rfind("mem_", 0) == 0) {
          memory_[name][counter_name] = counter.value;
          has_memory_counters = true;
        }
      }
      if (has_memory_counters) {
        memory_times_ns_[name] = run.GetAdjustedRealTime();
      }
      const size_t pos = name.rfind("/threads:");
      if (pos == std::string::npos) continue;
      const int threads = std::atoi(name.c_str() + pos + 9);
      if (threads <= 0) continue;
      times_[name.substr(0, pos)][threads] = run.GetAdjustedRealTime();
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  /// Writes the speedup table (one entry per case that ran at both
  /// thread counts) and returns the number of pairs written.
  int WriteSpeedupTable(const std::string& path) const {
    JsonWriter json;
    json.BeginObject();
    json.Key("threads_compared").Int(ComparisonThreads());
    WriteStaticChecksFields(&json, StaticCheckStats::Sample());
    json.Key("cases").BeginArray();
    int pairs = 0;
    for (const auto& [name, by_threads] : times_) {
      const auto serial = by_threads.find(1);
      if (serial == by_threads.end()) continue;
      for (const auto& [threads, time] : by_threads) {
        if (threads == 1) continue;
        json.BeginObject();
        json.Key("name").String(name);
        json.Key("threads").Int(threads);
        json.Key("t_serial_ns").Double(serial->second);
        json.Key("t_parallel_ns").Double(time);
        json.Key("speedup").Double(time > 0.0 ? serial->second / time : 0.0);
        json.EndObject();
        ++pairs;
      }
    }
    json.EndArray();
    json.EndObject();
    if (!WriteJsonFile(path, json.TakeString())) return pairs;
    std::fprintf(stderr, "[parallel] wrote %d speedup pair(s) to %s\n", pairs,
                 path.c_str());
    return pairs;
  }

  /// Writes the memory profile: one entry per case that published
  /// "mem_"-prefixed counters (its counters plus wall time), then a
  /// process-level MemStats sample. Returns the number of cases written.
  int WriteMemoryTable(const std::string& path) const {
    const MemStats process = MemStats::Sample();
    JsonWriter json;
    json.BeginObject();
    json.Key("peak_rss_kb").Int(process.peak_rss_kb);
    json.Key("arena").BeginObject();
    json.Key("alloc_calls").Int(process.arena.alloc_calls);
    json.Key("pool_hits").Int(process.arena.pool_hits);
    json.Key("hit_rate").Double(process.arena.hit_rate());
    json.Key("high_water_bytes").Int(process.arena.high_water_bytes);
    json.Key("bytes_cached").Int(process.arena.bytes_cached);
    json.Key("trims").Int(process.arena.trims);
    json.EndObject();
    json.Key("cases").BeginArray();
    int cases = 0;
    for (const auto& [name, counters] : memory_) {
      json.BeginObject();
      json.Key("name").String(name);
      const auto time = memory_times_ns_.find(name);
      if (time != memory_times_ns_.end()) {
        json.Key("t_ns").Double(time->second);
      }
      for (const auto& [counter_name, value] : counters) {
        json.Key(counter_name).Double(value);
      }
      json.EndObject();
      ++cases;
    }
    json.EndArray();
    json.EndObject();
    if (!WriteJsonFile(path, json.TakeString())) return cases;
    std::fprintf(stderr, "[memory] wrote %d memory case(s) to %s\n", cases,
                 path.c_str());
    return cases;
  }

 private:
  // base name -> thread count -> adjusted wall time (ns).
  std::map<std::string, std::map<int, double>> times_;
  // full case name -> "mem_*" counters published by the run.
  std::map<std::string, std::map<std::string, double>> memory_;
  // full case name -> adjusted wall time (ns), memory cases only.
  std::map<std::string, double> memory_times_ns_;
};

}  // namespace bench
}  // namespace msopds

/// Drop-in replacement for BENCHMARK_MAIN() that also emits the
/// serial-vs-parallel speedup table to `json_path` and the memory
/// profile (cases with "mem_" counters + MemStats) to `memory_json_path`.
#define MSOPDS_PARALLEL_BENCH_MAIN(json_path, memory_json_path)         \
  int main(int argc, char** argv) {                                     \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::msopds::bench::SpeedupReporter reporter;                          \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);                     \
    reporter.WriteSpeedupTable(json_path);                              \
    reporter.WriteMemoryTable(memory_json_path);                        \
    ::benchmark::Shutdown();                                            \
    return 0;                                                           \
  }

#endif  // MSOPDS_BENCH_PARALLEL_BENCH_H_
