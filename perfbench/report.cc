#include "report.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "tensor/simd.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr size_t kMaxFailureMessages = 8;

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t begin = line.find_first_not_of(' ', colon + 1);
        if (begin != std::string::npos) return line.substr(begin);
      }
    }
  }
  return "unknown";
}

double Median(const std::vector<double>& values) {
  return NearestRank(values, 50.0);
}

std::string Number(double value) {
  // Every digit: a round trip through text gives back the same double.
  return msopds::StrFormat("%.17g", value);
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"op_p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      // game-msopds: per-game medians of the span around each layer
      // call, and per-game means of the counters.
      {"attack.attacker_ms", "ms"},
      {"attack.opponent_ms", "ms"},
      {"recsys.victim_build_ms", "ms"},
      {"recsys.victim_train_ms", "ms"},
      {"recsys.metrics_ms", "ms"},
      {"core.mso_iterations", "count"},
      {"core.ms_per_mso_iteration", "ms"},
      {"core.unhealthy_iterations", "count"},
      {"solver.cg_iterations", "count"},
      {"solver.cg_breakdowns", "count"},
      {"solver.cg_fallbacks", "count"},
      {"recsys.victim_epochs", "count"},
      {"recsys.victim_retries", "count"},
      {"attack.plan_actions", "count"},
      {"attack.opponent_ratings", "count"},
      {"tensor.arena_allocs.attacker", "count"},
      {"tensor.arena_allocs.opponent", "count"},
      {"tensor.arena_allocs.victim", "count"},
      {"tensor.arena_hit_rate.attacker", "ratio"},
      {"tensor.arena_hit_rate.opponent", "ratio"},
      {"tensor.arena_hit_rate.victim", "ratio"},
      {"tensor.arena_peak_mb.attacker", "MB"},
      {"tensor.arena_peak_mb.opponent", "MB"},
      {"tensor.arena_peak_mb.victim", "MB"},
      // serve-topk.
      {"serve.export_ms", "ms"},
      {"serve.publish_ms", "ms"},
      {"serve.engine_p50_us", "us"},
      {"serve.engine_p99_us", "us"},
      {"serve.mean_batch_size", "count"},
      {"serve.batches", "count"},
      {"serve.max_queue_depth", "count"},
      {"serve.topk_pass_ms", "ms"},
      {"serve.op_p90_ms", "ms"},
      {"serve.op_p99_ms", "ms"},
      {"serve.rejected", "count"},
      {"serve.shed", "count"},
      {"serve.degraded", "count"},
      {"serve.cancelled", "count"},
      {"serve.retries", "count"},
      {"serve.mismatches", "count"},
      // ingest-train.
      {"scale.ingest_ms", "ms"},
      {"scale.train_ms", "ms"},
      {"scale.ingest_rss_mb", "MB"},
      {"scale.train_rss_mb", "MB"},
      {"scale.shards_visited", "count"},
      {"scale.peak_shard_mb", "MB"},
      {"scale.ratings", "count"},
      {"scale.bad_rows", "count"},
      {"data.load_tsv_ms", "ms"},
      {"recsys.train_mf_ms", "ms"},
      // Every workload: the tracing itself.
      {"trace.op_p50_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.residual_p99_pct", "%"},
      {"trace.spans", "count"},
  };
  return metrics;
}

void Outcome::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < kMaxFailureMessages) failures.push_back(why);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs.is_open()) return false;
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

std::vector<std::pair<std::string, std::string>> Provenance(
    const RunOptions& options) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  return {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", Number(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"git_sha", options.git_sha},
      {"git_dirty", options.git_dirty},
      {"nproc", std::to_string(nproc)},
      {"cpu_model", CpuModel()},
      {"compiler", std::string("g++ ") + __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"simd_backend", msopds::simd::BackendName()},
      {"kernel_threads",
       std::to_string(msopds::ThreadPool::Global().num_threads())},
  };
}

double ResidualPct(const std::vector<SpanRecord>& spans, double percentile) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::vector<double> residuals;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != -1 || std::string_view(spans[i].name) != "op") {
      continue;
    }
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    if (ms > 0.0) residuals.push_back(100.0 * self[i] / ms);
  }
  return NearestRank(residuals, percentile);
}

void FinishTrace(const Tracer& tracer, const std::vector<double>& traced_op_ms,
                 const RunOptions& options, Outcome* outcome) {
  const std::vector<SpanRecord> spans = tracer.Spans();
  const double untraced = Median(outcome->op_ms);
  const double traced = Median(traced_op_ms);
  const double residual = ResidualPct(spans, 99.0);
  Values& values = outcome->per_layer;
  values["trace.op_p50_ms"] = traced;
  values["trace.overhead_pct"] =
      untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0;
  values["trace.residual_p99_pct"] = residual;
  values["trace.spans"] = static_cast<double>(spans.size());
  if (residual > kResidualBoundPct) {
    outcome->Fail(msopds::StrFormat(
        "layer spans leave %.3f%% of an op's wall time unaccounted at p99 "
        "(bound %.1f%%)",
        residual, kResidualBoundPct));
  }
  const std::string prefix = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed);
  if (!tracer.Write(prefix, Provenance(options))) {
    std::fprintf(stderr, "perfbench: could not write %s.trace.json\n",
                 prefix.c_str());
  }
}

std::string ResultLine(const Outcome& outcome, bool trace) {
  Values values;
  if (trace) {
    values = outcome.per_layer;
  } else {
    values["setup_s"] = Median(outcome.setup_s);
    values["ops_per_s"] =
        outcome.timed_s > 0.0
            ? static_cast<double>(outcome.op_ms.size()) / outcome.timed_s
            : 0.0;
    values["op_p50_ms"] = NearestRank(outcome.op_ms, 50.0);
    values["peak_rss_mb"] = outcome.peak_rss_mb;
  }
  std::string metrics;
  for (const MetricSpec& spec : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = values.find(spec.name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics += msopds::StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                                 spec.name, Number(value).c_str(), spec.unit);
  }
  return msopds::StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}",
      outcome.failed == 0 && outcome.attempted > 0 ? "true" : "false",
      static_cast<long long>(outcome.attempted),
      static_cast<long long>(outcome.failed), metrics.c_str());
}

std::string ProvenanceLine(
    const std::vector<std::pair<std::string, std::string>>& provenance) {
  msopds::JsonWriter json;
  json.BeginObject().Key("provenance").BeginObject();
  for (const auto& [key, value] : provenance) json.Key(key).String(value);
  json.EndObject().EndObject();
  return json.TakeString();
}

}  // namespace perfbench
