#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

/// A metric name with its unit, as BENCHMARK.json lists it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run.
const std::vector<MetricSpec>& EndToEndMetrics();

/// Per-layer metrics, printed by every traced run. A workload that does
/// not call a layer reports that layer's metrics as 0.
const std::vector<MetricSpec>& PerLayerMetrics();

using Values = std::map<std::string, double>;

/// What one run of a workload measured.
struct Outcome {
  /// Wall seconds of each set-up repetition (reported as their median).
  std::vector<double> setup_s;
  /// Wall milliseconds of each op of the untraced timed phase.
  std::vector<double> op_ms;
  /// Wall seconds of the untraced timed phase.
  double timed_s = 0.0;
  /// Peak resident set at the end of the untraced timed phase, before the
  /// output checks run.
  double peak_rss_mb = 0.0;
  /// Ops attempted and ops that failed an output check (an op counts
  /// once however many of its checks fail).
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The first few failure messages, for stderr.
  std::vector<std::string> failures;
  /// Per-layer values of the traced phase (traced runs only).
  Values per_layer;

  /// Records a failed op with its reason.
  void Fail(const std::string& why);
};

/// Set-ups per run where a workload repeats its set-up; setup_s is their
/// median.
inline constexpr int kSetups = 3;

/// Run-wide inputs every workload receives.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for generated files and trace output; created on demand.
  std::string out_dir = ".";
  /// Commit of the measured tree and whether it had local changes, as
  /// the caller found them ("unknown" outside a git checkout).
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

/// Peak resident set (VmHWM) of this process in MiB; 0 where /proc is
/// missing.
double PeakRssMb();

/// Restarts the VmHWM watermark so the next PeakRssMb() covers only what
/// follows. Returns false where the kernel does not support it.
bool ResetPeakRss();

/// Machine and build facts recorded with every run.
std::vector<std::pair<std::string, std::string>> Provenance(
    const RunOptions& options);

/// Per-op accounting of a traced phase: the nearest-rank `percentile`
/// over ops of the share of an op's wall time that no layer span covers
/// (its self time), in percent. Ops are the root spans named "op".
double ResidualPct(const std::vector<SpanRecord>& spans, double percentile);

/// The share of an op's wall time its layer spans may leave uncovered, at
/// the 99th percentile of ops; a traced run past it fails one op.
inline constexpr double kResidualBoundPct = 1.0;

/// Ends a traced phase: adds the shared trace values to
/// outcome->per_layer (traced op p50, tracing overhead against the
/// untraced p50 in outcome->op_ms, the span residual, checked against
/// kResidualBoundPct, and the span count) and writes the trace files to
/// options.out_dir as <workload>-seed<n>.trace.json / .summary.json.
void FinishTrace(const Tracer& tracer, const std::vector<double>& traced_op_ms,
                 const RunOptions& options, Outcome* outcome);

/// The result line: one JSON object with correct/attempted/failed and
/// every metric of the mode, values printed with all their digits.
std::string ResultLine(const Outcome& outcome, bool trace);

/// Provenance as one JSON object line.
std::string ProvenanceLine(
    const std::vector<std::pair<std::string, std::string>>& provenance);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
