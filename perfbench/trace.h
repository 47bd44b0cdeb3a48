#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed between two steady-clock points.
inline double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Nearest-rank percentile: the smallest sample with at least p percent
/// of the samples at or below it (p in (0, 100]). Returns 0 for an empty
/// sample; callers report the sample count beside it.
double NearestRank(std::vector<double> samples, double p);

/// One closed span. `name` is a string literal ("<layer>.<call>"); times
/// are nanoseconds since the tracer was built; `parent` indexes the
/// enclosing span on the same thread (-1 at a root) and `request` is the
/// op or request the span belongs to.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
  int32_t thread = 0;
};

/// Flat per-name summary: self time is each span's duration minus the
/// part of it its child spans cover, summed over the name's spans.
struct SpanSummary {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
};

/// Self time of every span, in milliseconds, indexed like `spans`.
std::vector<double> SelfTimesMs(const std::vector<SpanRecord>& spans);

/// Per-name summaries in order of first appearance.
std::vector<SpanSummary> Summarize(const std::vector<SpanRecord>& spans);

/// Durations (ms) of the spans called `name`, in recording order.
std::vector<double> DurationsMs(const std::vector<SpanRecord>& spans,
                                const std::string& name);

/// Nearest-rank median of DurationsMs(spans, name).
inline double MedianMs(const std::vector<SpanRecord>& spans,
                       const std::string& name) {
  return NearestRank(DurationsMs(spans, name), 50.0);
}

/// In-memory span recorder. A disabled tracer records nothing and a
/// Scope on it costs one branch, so the untraced timed phase runs the
/// same code as the traced one. Thread-safe: each thread nests its own
/// spans, and all spans land in one vector under a mutex.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int32_t index, int32_t saved_parent)
        : tracer_(tracer), index_(index), saved_parent_(saved_parent) {}
    Tracer* tracer_;
    int32_t index_;
    int32_t saved_parent_;
  };

  /// Opens a span named by the string literal `name` (by convention
  /// "<layer>.<call>") as a child of the innermost open span on this
  /// thread.
  [[nodiscard]] Scope Span(const char* name, int64_t request);

  /// Copy of every span recorded so far (open spans have end_ns 0).
  std::vector<SpanRecord> Spans() const;

  /// Writes the spans as Chrome trace-event JSON (chrome://tracing and
  /// Perfetto open it) and the flat summary beside it at
  /// `<path_prefix>.trace.json` / `<path_prefix>.summary.json`.
  /// `provenance` is a list of key/value pairs copied into both files.
  bool Write(const std::string& path_prefix,
             const std::vector<std::pair<std::string, std::string>>&
                 provenance) const;

 private:
  void Close(int32_t index, int32_t saved_parent);
  int64_t NowNs() const;

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  // A deque, so recording never copies earlier spans while holding mu_.
  std::deque<SpanRecord> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
